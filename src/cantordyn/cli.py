"""Command-line surface: every operation scriptable, outputs reproducible.

Arguments naming objects accept a builtin alias (`id`, `swap`,
`odometer:dyadic[:k]`, `uniform`), a path to a .cdyn file, or an inline
document body.  All quantitative outputs are exact rationals rendered p/q.
Exit codes: 0 success, 2 structured witness or refusal, 1 error.

The modules that only some commands use (`measure`, `topology`, `synth`,
`gen`, and `json` for --format json) are imported where those commands run,
so a call loads no module that its command does not use.
"""

from __future__ import annotations

import argparse
import os
import sys

from .space import DYADIC, word_text
from .homeo import (
    Odometer,
    PrefixMap,
    centralizer_index_sequence,
    difference_set,
    full_group_membership,
    period_structure,
    weak_distance,
)
from . import docformat as df


def __getattr__(name):
    # cli.random_document is gen.random_document, loaded on first use
    if name == "random_document":
        from .gen import random_document

        return random_document
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    pass


# Input caps: each refuses, before any work, a request whose output or work
# grows past what one call is meant to do.
WORD_CAP = 1 << 16  # depth-d cylinders that one --depth may enumerate
BOUND_CAP = 1024  # powers one periods/fullgroup --bound or rokhlin --n may take
COUNT_CAP = 10_000  # documents that one gen call may print


def _cap_depth(sig, depth, reach):
    """Refuse a negative --depth, and one where the command reads more than
    WORD_CAP cylinders of depth reach; the product stops at the cap, so a
    huge depth costs nothing."""
    if depth < 0:
        raise CliError(f"--depth must not be negative, got {depth}")
    n = 1
    for t in range(reach):
        n *= sig.level(t)
        if n > WORD_CAP:
            raise CliError(f"--depth {depth} gives more than {WORD_CAP} cylinders")


def _cap(option, value, cap):
    if value > cap:
        raise CliError(f"{option} {value} is above the cap {cap}")


# -- reference resolution --------------------------------------------------------


def _read_whole(text, read, what):
    """read(parser) over all of text, in the document grammar."""
    p = df._Parser(text)
    x = read(p)
    if not p.eof():
        raise df.DocumentError(f"trailing input after {what}")
    return x


def resolve_homeo(text):
    if text == "id":
        return PrefixMap.identity(DYADIC)
    if text.startswith("id:"):
        return PrefixMap.identity(_read_whole(text[3:], df._Parser.sig, "signature"))
    if text == "swap":
        return PrefixMap.tree_pair(DYADIC, [((0,), (1,)), ((1,), (0,))])
    if text.startswith("odometer:"):
        rest = text[len("odometer:") :]
        k = 1
        if ":" in rest and not rest.endswith(")"):
            rest, ks = rest.rsplit(":", 1)
            k = _read_whole(ks, df._Parser.int_, "odometer shift")
        return Odometer(_read_whole(rest, df._Parser.sig, "signature"), k)
    return _load_document(text, "homeo")


def resolve_measure(text, sig):
    from .measure import ProductMeasure

    if text == "uniform":
        return ProductMeasure.uniform(sig)
    if os.path.exists(text) or text.startswith(("measure ", "cdyn ")):
        return _load_document(text, "measure")
    # inline measure expression over the target signature
    return _read_whole(text, lambda p: p.measure(sig), "measure")


def _load_document(text, kind):
    """The value of the `kind` document in the file named text, or in text
    itself."""
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as f:
            text = f.read()
    doc = df.parse(text)
    if doc.kind != kind:
        raise CliError(f"expected a {kind} document, got {doc.kind}")
    return doc.value


def parse_partition(text, sig):
    p = df._Parser(text)
    atoms = [p.wordset(sig)]
    while p.try_lit(","):
        atoms.append(p.wordset(sig))
    if not p.eof():
        raise df.DocumentError("trailing input after partition")
    return atoms


# -- output helpers --------------------------------------------------------------


class Out:
    """A command's output items, rendered as they come in the chosen format
    and written together once the command has succeeded."""

    def __init__(self, fmt):
        self.json = fmt == "json"
        self.items = []

    def text(self, value):
        self.items.append({"value": str(value)} if self.json else str(value))

    def doc(self, document):
        if self.json:
            self.items.append(df.document_json(document))
        else:
            self.items.append(df.print_document(document).rstrip("\n"))

    def emit(self):
        if self.json:
            import json

            sys.stdout.write(json.dumps(self.items, sort_keys=True, indent=2) + "\n")
        elif self.items:
            sys.stdout.write("\n".join(self.items) + "\n")


def _epsilon(args):
    return _read_whole(args.epsilon, df._Parser.frac, "--epsilon")


# -- commands --------------------------------------------------------------------


def cmd_dist(args, out):
    S = resolve_homeo(args.S)
    T = resolve_homeo(args.T)
    out.text(weak_distance(S, T))
    return 0


def cmd_member(args, out):
    from .topology import in_neighborhood

    S = resolve_homeo(args.S)
    N = _load_document(args.N, "neighborhood")
    # resolve_homeo and the parser build only exact maps, so the weak ball
    # test always decides
    m = in_neighborhood(S, N)
    entries = {"member": m.ok}
    cert = m.certificate
    if "mismatched_sets" in cert:
        for i, F in enumerate(cert["mismatched_sets"]):
            entries[f"mismatch_{i}"] = F
    if "measures_of_difference" in cert:
        for i, v in enumerate(cert["measures_of_difference"]):
            entries[f"mass_{i}"] = v
    if "max_defect" in cert:
        entries["max_defect"] = cert["max_defect"]
    if "weak_distance" in cert:
        entries["lower"], entries["upper"] = cert["weak_distance"]
    out.doc(df.doc_certificate(S.sig, "membership", entries))
    return 0 if m.ok else 2


def cmd_defect(args, out):
    from .topology import defect_over_partition

    S = resolve_homeo(args.S)
    T = resolve_homeo(args.T)
    sig = S.sig
    mu = resolve_measure(args.measure, sig)
    partition = parse_partition(args.partition, sig)
    kind = {"tau-prime": "tau_prime", "bar-tau": "bar_tau"}[args.kind]
    out.text(defect_over_partition(kind, S, T, mu, partition))
    return 0


def cmd_compose(args, out):
    maps = [resolve_homeo(t) for t in args.maps]
    acc = maps[0]
    for m in maps[1:]:
        acc = acc.after(m)
    out.doc(df.doc_homeo(acc))
    return 0


def cmd_tabulate(args, out):
    T = resolve_homeo(args.T)
    sig = T.sig
    _cap_depth(sig, args.depth, args.depth)
    for u, v, c in sorted(T.table(args.depth)):
        tail = f"+{c}" if c > 0 else (str(c) if c < 0 else "")
        out.text(f"{word_text(sig, u)} -> {word_text(sig, v)}{tail}")
    return 0


def cmd_diff(args, out):
    S = resolve_homeo(args.S)
    T = resolve_homeo(args.T)
    E = difference_set(S, T)
    entries = {"core": E.core}
    for i, x in enumerate(E.removed):
        entries[f"removed_{i}"] = x
    out.doc(df.doc_certificate(S.sig, "difference", entries))
    return 0


def cmd_periods(args, out):
    _cap("--bound", args.bound, BOUND_CAP)
    T = resolve_homeo(args.T)
    info = period_structure(T, args.bound)
    entries = {"aperiodic": info["aperiodic_up_to_bound"]}
    for q, part in sorted(info["exact_period_parts"].items()):
        entries[f"period_{q}"] = part
    for q, pts in sorted(info["isolated_periodic_points"].items()):
        for i, x in enumerate(pts):
            entries[f"isolated_{q}_{i}"] = x
    entries["residual"] = info["residual"]
    out.doc(df.doc_certificate(T.sig, "periods", entries))
    return 0


def cmd_fullgroup(args, out):
    _cap("--bound", args.bound, BOUND_CAP)
    S = resolve_homeo(args.S)
    T = resolve_homeo(args.T)
    pieces, missing = full_group_membership(S, T, args.bound)
    if pieces is None:
        out.doc(df.doc_certificate(S.sig, "refusal", {"unmatched": missing}))
        return 2
    entries = {f"power_{i}": E for i, E in sorted(pieces.items())}
    out.doc(df.doc_certificate(S.sig, "fullgroup", entries))
    return 0


def cmd_centralizer(args, out):
    R = resolve_homeo(args.R)
    S = resolve_homeo(args.S)
    # the test refines R to every cylinder of depth + 1
    _cap_depth(S.sig, args.depth, args.depth + 1)
    res = centralizer_index_sequence(R, S, args.depth)
    entries = {"ok": res["ok"]}
    for s, (i, p) in enumerate(zip(res["indices"], res["moduli"])):
        entries[f"index_{s}"] = i
        entries[f"modulus_{s}"] = p
    if not res["ok"]:
        entries["failure_level"] = res["failure_level"]
    out.doc(df.doc_certificate(S.sig, "centralizer", entries))
    return 0 if res["ok"] else 2


def cmd_synth(args, out):
    from . import synth

    kind = args.kind
    T = resolve_homeo(args.target)
    sig = T.sig
    if kind in ("odometer", "periodic"):
        if args.partition is None:
            raise CliError(f"synth {kind} needs --partition")
        partition = parse_partition(args.partition, sig)
        fn = (
            synth.odometer_in_weak_neighborhood
            if kind == "odometer"
            else synth.periodic_in_weak_neighborhood
        )
        res = fn(T, partition)
        if not res.ok:
            out.doc(
                df.doc_certificate(
                    sig, "witness", {"forward-closed": True, "set": res.witness}
                )
            )
            return 2
        out.doc(df.doc_homeo(res.homeo))
        entries = {
            k: v for k, v in res.certificate.items() if isinstance(v, (bool, int))
        }
        out.doc(df.doc_certificate(sig, f"synth-{kind}", entries))
        return 0
    if kind == "rank1":
        measures = [resolve_measure(m, sig) for m in args.measure]
        res = synth.rank1_in_uniform_neighborhood(T, measures, _epsilon(args))
        out.doc(df.doc_homeo(res.homeo))
        entries = {"core": res.certificate["difference_set"].core}
        for i, v in enumerate(res.certificate["measures_of_difference"]):
            entries[f"mass_{i}"] = v
        out.doc(df.doc_certificate(sig, "synth-rank1", entries))
        return 0
    if kind == "aperiodize":
        S, cert = synth.aperiodize_periodic(T, _epsilon(args), p=args.period)
        out.doc(df.doc_homeo(S))
        out.doc(
            df.doc_certificate(
                sig,
                "synth-aperiodize",
                {
                    "fundamental-domain": cert["fundamental_domain"],
                    "period": cert["period"],
                    "weak-distance": cert["weak_distance"],
                },
            )
        )
        return 0
    # kind == "fundamental", the last of the parser's choices
    if args.period is None:
        raise CliError("synth fundamental needs --period")
    out.doc(df.doc_clopen(synth.fundamental_domain(T, args.period)))
    return 0


def cmd_rokhlin(args, out):
    _cap("--n", args.n, BOUND_CAP)
    from .synth import rokhlin_castle

    T = resolve_homeo(args.target)
    sig = T.sig
    measures = [resolve_measure(m, sig) for m in args.measure]
    eps = _epsilon(args)
    castle = rokhlin_castle(T, args.n, measures, eps)
    towers = [(base, h) for base, h, _ in castle.towers]
    out.doc(df.doc_castle(sig, towers, castle.base, castle.bound))
    out.text(f"bound {min(castle.bound)} > {1 - eps}")
    return 0


def cmd_graph_dot(args, out):
    from .synth import overlap_graph

    T = resolve_homeo(args.target)
    partition = parse_partition(args.partition, T.sig)
    g = overlap_graph(T, partition)
    out.text(g.to_dot())
    return 0


def cmd_measure(args, out):
    from .measure import measure_of

    if not (os.path.exists(args.set) or args.set.startswith(("clopen ", "cdyn "))):
        raise CliError("the set argument must be a clopen document")
    # the clopen argument fixes the signature for alias measures
    A = _load_document(args.set, "clopen")
    mu = resolve_measure(args.M, A.sig)
    out.text(measure_of(mu, A))
    return 0


def cmd_gen(args, out):
    if args.count < 0:
        raise CliError(f"--count must not be negative, got {args.count}")
    _cap("--count", args.count, COUNT_CAP)
    import random

    from . import gen

    rng = random.Random(args.seed)
    for i in range(args.count):
        out.doc(gen.random_document(rng, args.kind))
    return 0


# -- entry point -------------------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


_MAPS = [_arg("S"), _arg("T")]

# name: (function, help, arguments); --help lists the commands in this order
COMMANDS = {
    "dist": (cmd_dist, "exact weak distance between two maps", _MAPS),
    "member": (cmd_member, "exact neighborhood membership", [_arg("S"), _arg("N")]),
    "defect": (cmd_defect, "defect sup over unions of atoms", [
        *_MAPS,
        _arg("--measure", required=True),
        _arg("--partition", required=True),
        _arg("--kind", choices=["tau-prime", "bar-tau"], default="tau-prime"),
    ]),
    "compose": (cmd_compose, "exact composition of maps", [_arg("maps", nargs="+")]),
    "tabulate": (cmd_tabulate, "cylinder table of a map", [
        _arg("T"), _arg("--depth", type=int, default=2),
    ]),
    "diff": (cmd_diff, "exact difference set of two maps", _MAPS),
    "periods": (cmd_periods, "exact periodic structure report", [
        _arg("T"), _arg("--bound", type=int, default=8),
    ]),
    "fullgroup": (cmd_fullgroup, "locally constant power test", [
        *_MAPS, _arg("--bound", type=int, default=8),
    ]),
    "centralizer": (cmd_centralizer, "odometer centralizer test", [
        _arg("R"), _arg("S"), _arg("--depth", type=int, default=5),
    ]),
    "synth": (cmd_synth, "synthesis procedures with certificates", [
        _arg("kind", choices=[
            "odometer", "periodic", "rank1", "aperiodize", "fundamental",
        ]),
        _arg("--target", required=True),
        _arg("--partition"),
        _arg("--measure", action="append", default=[]),
        _arg("--epsilon", default="1/2"),
        _arg("--period", type=int, default=None),
    ]),
    "rokhlin": (cmd_rokhlin, "castle with the marked-base bound", [
        _arg("--target", required=True),
        _arg("--n", type=int, required=True),
        _arg("--measure", action="append", required=True),
        _arg("--epsilon", required=True),
    ]),
    "graph-dot": (cmd_graph_dot, "overlap graph as DOT text", [
        _arg("--target", required=True), _arg("--partition", required=True),
    ]),
    "measure": (cmd_measure, "exact mass of a clopen set", [_arg("M"), _arg("set")]),
    "gen": (cmd_gen, "randomized canonical documents (test data)", [
        _arg("kind", nargs="?", default=None, choices=[None, *df.KINDS]),
        _arg("--seed", type=int, default=0),
        _arg("--count", type=int, default=1),
    ]),
}


def build_parser(command=None):
    """The parser of every command, or of the named command alone.

    A one-command parser spells out every command in its usage line, as the
    full parser does, so its messages are the full parser's."""
    ap = argparse.ArgumentParser(prog="cantordyn")
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if command else None,
    )
    for name in [command] if command else COMMANDS:
        fn, help_, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=["text", "json"], default="text")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return ap


def main(argv=None):
    """Run one command; returns its exit code.  Output goes to sys.stdout and
    errors to sys.stderr; argparse raises SystemExit for --help and usage
    errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call runs one command, so only its parser is built; -h, an unknown
    # name or an option first gets the full parser and its messages
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = ap.parse_args(argv)
    out = Out(args.format)
    try:
        code = args.fn(args, out)
    except (CliError, df.DocumentError, ValueError, TypeError, RuntimeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    out.emit()
    return code


def run():
    """Process entry point: main() over sys.argv, then os._exit.

    The output is flushed here, so the interpreter's teardown, which would
    only free memory the process is about to give back, is skipped.  A
    stdout that can no longer be written (its reader has gone) ends the call
    with `error: ...` and exit code 1."""
    try:
        try:
            code = main()
        except SystemExit as e:  # argparse: --help and usage errors
            code = e.code
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as e:
        code = 1
        try:
            sys.stderr.write(f"error: {e}\n")
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
