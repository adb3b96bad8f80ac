"""Per-layer tracing by wrapping cantordyn's operation-level entry points.

The wrappers live here, in the benchmark, not in the library: install()
replaces each entry point, in every cantordyn module that refers to it, by a
wrapper that records one span (name, parent span, start, end), and
uninstall() puts the originals back.  Hot helpers (is_prefix,
Signature.level and shift) are deliberately left unwrapped; their time
counts as self time of the wrapped caller.

Spans stay in memory as parallel arrays and are written once, by
write_spans(), as a JSON header line followed by the raw arrays
(int32 name ids, int32 parent indices, int64 start ns, int64 end ns).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("space", "measure", "homeo", "topology", "synth", "docformat", "cli")

# Entry points of space and homeo are listed by hand so that the hot helpers
# stay unwrapped; the other library layers wrap every public function.
EXPLICIT = {
    "space": (
        "Clopen.__or__", "Clopen.__and__", "Clopen.__sub__", "Clopen.__xor__",
        "Clopen.__le__", "Clopen.complement", "canonical_words",
        "is_partition", "partition_at_depth", "cyclic_partition",
    ),
    "homeo": (
        "PrefixMap.after", "PrefixMap.power", "PrefixMap.image",
        "PrefixMap.preimage", "PrefixMap.inverse", "PrefixMap.canonical",
        "weak_distance", "difference_set", "compose", "inverse", "power",
        "sup_pointwise_distance", "common_refinement", "fixed_points",
        "period_structure", "full_group_membership",
        "centralizer_index_sequence", "tabulate",
    ),
    "cli": ("main",),
}

SETOPS = tuple(
    f"space.Clopen.{m}"
    for m in ("__or__", "__and__", "__sub__", "__xor__", "__le__", "complement")
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self, package_modules):
        """Wrap the entry points of each layer; package_modules maps layer
        names (and "" for the package itself) to the imported modules."""
        for layer in LAYERS:
            mod = package_modules[layer]
            for qual in EXPLICIT.get(layer) or _public_functions(mod):
                owner, attr = mod, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                wrapped = self.wrap(f"{layer}.{qual}", orig)
                targets = [owner] if owner is not mod else list(package_modules.values())
                for target in targets:
                    for key, val in list(vars(target).items()):
                        if val is orig:
                            setattr(target, key, wrapped)
                            self._undo.append((target, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def counts(self):
        """{span name: number of spans}."""
        return {self.names[nid]: k for nid, k in Counter(self.name).items()}

    def child_count(self, child, parent):
        """Spans named child whose direct parent span is named parent."""
        if child not in self._ids or parent not in self._ids:
            return 0
        c, p = self._ids[child], self._ids[parent]
        name = self.name
        return sum(1 for i, pi in zip(name, self.parent) if i == c and pi >= 0 and name[pi] == p)

    def self_seconds(self):
        """{layer: seconds}, a span's duration minus its direct children's."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per_name = [0] * len(self.names)
        for i in range(n):
            per_name[self.name[i]] += self.end[i] - self.start[i] - child[i]
        out = {}
        for nid, ns in enumerate(per_name):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] = out.get(layer, 0) + ns
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def write_spans(self, path):
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": ["name:i", "parent:i", "start_ns:q", "end_ns:q"]}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)


def _public_functions(mod):
    return [
        name for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
        and not name.startswith("_")
    ]
