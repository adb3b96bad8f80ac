"""Layered benchmark for cantordyn.

    python3 perfbench/run.py --workload castle --seed 0 --seconds 50 --trace 0

Runs one workload (castle, algebra, neighborhood or cli; see workloads.py)
as a single-client closed loop from the root of a checkout.  The untraced
run (--trace 0) prints the end-to-end metrics:

  setup_s      fresh interpreter to inputs ready (median of 11 probes)
  wall_s       time to run the whole batch once: the sum of its operations'
               latencies
  op_p50_ms    median latency of one operation of the batch
  op_tail_ms   latency at the highest percentile with 10 samples beyond it
  fail_rate    failed / attempted operations (printed; reported in the JSON
               as `failed` and `attempted`)
  peak_rss_mb  peak RSS of this process; for cli, of the largest child

A run spends about --seconds on operations (see measure(): the whole
batch at least twice, cheap operations more often), and each operation's
latency is the median of its samples.  Only calls into cantordyn are
timed; every result is checked after its round.

The timings are host-calibrated: on a shared host the same code runs up
to 1.5 times slower for seconds to minutes at a time, as other tenants
come and go.  A fixed pure-Python reference kernel (reference_s) runs
between operations, and each latency is scaled by REF_NOMINAL_S over the
kernel's time measured around it.  A calibrated second is thus a second
on a host where the kernel takes REF_NOMINAL_S; the raw figures are
printed beside the calibrated ones.  The kernel uses no cantordyn code,
so a change to the library moves calibrated and raw times alike.

The traced run (--trace 1) makes one untraced and one traced round over
the batch and prints the per-layer metrics from the spans of spans.py;
its times are raw.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("castle", "algebra", "neighborhood", "cli")
SETUP_PROBES = 11
MIN_SAMPLES = 2
START_PROBES = 7
REF_NOMINAL_S = 1e-3  # the reference kernel's time on a quiet 2-vCPU host
CALIBRATE_NS = 50e6  # operation time between two reference measurements


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cantordyn" / "__init__.py").is_file():
        print(f"error: no cantordyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BUILDERS

    if args.setup_probe:
        w = BUILDERS[args.workload](args.seed)
        print("ready", flush=True)
        w.cleanup()
        return 0

    print_environment()
    if args.trace:
        report = traced_run(args, BUILDERS[args.workload])
    else:
        report = untraced_run(args, BUILDERS[args.workload])
    print(json.dumps(report))
    return 0


# -- environment -------------------------------------------------------------------


def print_environment():
    print(f"# commit {git_commit()}")
    print(f"# source sha256 {source_digest()}")
    print(f"# nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})")
    print(f"# python {platform.python_implementation()} {platform.python_version()}")
    print("# loadavg {:.2f} {:.2f} {:.2f}".format(*os.getloadavg()))
    ref = reference_s()
    print(f"# reference kernel {ref * 1e3:.4f} ms (host factor {REF_NOMINAL_S / ref:.3f})")


def reference_once():
    t0 = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    pairs = {(a, b) for a, b, _ in counts}
    sorted(pairs | set(counts), reverse=True)
    return time.perf_counter() - t0


def reference_s():
    """How long a fixed pure-Python kernel takes right now (best of 3): the
    tuple hashing, dict and set building and sorting that cantordyn's own
    code is made of, and no call into it."""
    return min(reference_once() for _ in range(3))


class Calibration:
    """Host factors for the latencies of one round, in order.

    The reference kernel runs before the first operation and again once
    CALIBRATE_NS of operation time has passed; the operations between two
    kernel runs get REF_NOMINAL_S over the mean of the two."""

    def __init__(self):
        self.factors = []
        self.ref = reference_s()
        self.pending = 0
        self.since = 0

    def add(self, latency_ns):
        self.pending += 1
        self.since += latency_ns
        if self.since >= CALIBRATE_NS:
            self.flush()

    def flush(self):
        if self.pending:
            ref = reference_s()
            self.factors += [2 * REF_NOMINAL_S / (self.ref + ref)] * self.pending
            self.ref, self.pending, self.since = ref, 0, 0
        return self.factors


def git_commit():
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def inputs_digest(w):
    return hashlib.sha256(repr(w.inputs).encode()).hexdigest()[:16]


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "cantordyn").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


# -- measurement -----------------------------------------------------------------


class Failed:
    def __init__(self, exc):
        self.exc = exc


def run_round(ops, due, call=None, calibration=None):
    """Latencies (ns) and results of ops[i] for i in due, in order; only the
    call op.fn() is timed."""
    clock = time.perf_counter_ns
    latencies, results = [], []
    for i in due:
        fn = ops[i].fn
        t0 = clock()
        try:
            r = fn() if call is None else call(fn)
        except Exception as e:  # a raising operation is a failed operation
            r = Failed(e)
        latencies.append(clock() - t0)
        results.append(r)
        if calibration is not None:
            calibration.add(latencies[-1])
    return latencies, results


def fair_share(spent, budget):
    """The level b with sum(max(s, b) for s in spent) == budget, or 0 when
    the operations have already spent the budget."""
    above = 0
    ordered = sorted(spent, reverse=True)
    for m, s in enumerate(ordered):
        level = (budget - above) / (len(ordered) - m)
        if level >= s:
            return level
        above += s
    return 0


def measure(ops, seconds, checker):
    """Closed loop over the batch, one operation at a time.

    The whole batch runs as many times as fit in the time budget, and at
    least MIN_SAMPLES times.  What is left of the budget goes to the cheap
    operations: round after round, those that have spent less than an equal
    share of the budget run again, until each has spent it.  The budget is
    spent in raw time.  Returns the raw and the calibrated samples (ns) of
    every operation and the number of failed runs."""
    samples = [[] for _ in ops]
    calibrated = [[] for _ in ops]
    failed = 0

    def run(due):
        nonlocal failed
        calibration = Calibration()
        latencies, results = run_round(ops, due, calibration=calibration)
        factors = calibration.flush()
        failed += checker.failures(ops, due, results)
        for i, t, f in zip(due, latencies, factors):
            samples[i].append(t)
            calibrated[i].append(t * f)
        return sum(latencies)

    gc.collect()
    budget = seconds * 1e9
    every = range(len(ops))
    first = run(every)
    for _ in range(max(MIN_SAMPLES, int(budget // first)) - 1):
        run(every)
    share = fair_share([sum(s) for s in samples], budget)
    while due := [i for i, s in enumerate(samples) if sum(s) < share]:
        run(due)
    return samples, calibrated, failed


class Checker:
    """Checks every result; a result byte-identical (pickled) to one already
    verified for the same operation shares its verdict."""

    def __init__(self):
        self.verified = {}
        self.failed_labels = []

    def failures(self, ops, due, results):
        failed = 0
        for i, r in zip(due, results):
            op = ops[i]
            if isinstance(r, Failed):
                failed += 1
                self.failed_labels.append(f"{op.label}: raised {r.exc!r}")
                continue
            key = hashlib.blake2b(pickle.dumps(r), digest_size=16).digest()
            if self.verified.get(i) == key:
                continue
            try:
                ok, why = op.check(r) is True, "wrong result"
            except Exception as e:  # a check that cannot run counts as failed
                ok, why = False, f"check raised {e!r}"
            if ok:
                self.verified[i] = key
            else:
                failed += 1
                self.failed_labels.append(f"{op.label}: {why}")
        return failed


def fresh_process_seconds(cmd, until_ready=False):
    """Wall time of a fresh child, to its 'ready' line or to its exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        if until_ready:
            line = p.stdout.readline()
            dt = time.perf_counter() - t0
            if line.strip() != b"ready":
                raise RuntimeError(f"setup probe failed: {cmd}")
        p.stdout.read()
    finally:
        p.stdout.close()
        code = p.wait()
    if not until_ready:
        dt = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"probe exited with {code}: {cmd}")
    return dt


def setup_seconds(args):
    """Median raw and median calibrated seconds of SETUP_PROBES probes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    raw, calibrated = [], []
    ref = reference_s()
    for _ in range(SETUP_PROBES):
        dt = fresh_process_seconds(cmd, until_ready=True)
        after = reference_s()
        raw.append(dt)
        calibrated.append(dt * 2 * REF_NOMINAL_S / (ref + after))
        ref = after
    return statistics.median(raw), statistics.median(calibrated)


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    still has 10 samples beyond it (the maximum if there are fewer)."""
    s = sorted(latencies)
    i = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[i], 100 * (i + 1) / len(s), len(s) - 1 - i


def untraced_run(args, build):
    w = build(args.seed)
    try:
        print(f"# inputs sha256 {inputs_digest(w)}")
        checker = Checker()
        samples, calibrated, failed = measure(w.ops, args.seconds, checker)
        # read before any setup probe runs: the only children so far are cli's
        peak_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
        ).ru_maxrss
    finally:
        w.cleanup()
    setup_raw, setup_s = setup_seconds(args)
    per_op = [statistics.median(s) for s in calibrated]
    per_op_raw = [statistics.median(s) for s in samples]
    tail_ns, pct, beyond = tail(per_op)
    n, attempted = len(per_op), sum(len(s) for s in samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op) / 1e9, "s"),
        "op_p50_ms": (statistics.median(per_op) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    counts = sorted(len(s) for s in samples)
    each = f"each operation's median of {counts[0]} to {counts[-1]} samples"
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes; raw {setup_raw:.4g} s",
        "wall_s": f"{n} operations, {each}; raw {sum(per_op_raw) / 1e9:.4g} s",
        "op_p50_ms": f"n={n}, {each}; raw {statistics.median(per_op_raw) / 1e6:.4g} ms",
        "op_tail_ms": f"p{pct:.3f}, n={n}, {beyond} samples beyond, {each}; "
                      f"raw {tail(per_op_raw)[0] / 1e6:.4g} ms",
        "peak_rss_mb": "largest child" if w.name == "cli" else "this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} {value:.6g} {unit} ({notes[name]})")
    print(f"{w.name} fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    report_failures(checker)
    return result(attempted, failed, metrics)


def traced_run(args, build):
    import importlib

    from spans import LAYERS, SETOPS, Tracer
    from workloads import scratch_dir

    w = build(args.seed)
    try:
        print(f"# inputs sha256 {inputs_digest(w)}")
        ops = w.traced_ops or w.ops
        checker = Checker()
        every = range(len(ops))
        gc.collect()
        lat_u, results = run_round(ops, every)
        failed = checker.failures(ops, every, results)
        tracer = Tracer()
        modules = {"": importlib.import_module("cantordyn")}
        modules.update({m: importlib.import_module(f"cantordyn.{m}") for m in LAYERS})
        tracer.install(modules)
        gc.collect()
        try:
            lat_t, results = run_round(ops, every, tracer.wrap("bench.op", lambda fn: fn()))
        finally:
            tracer.uninstall()
        failed += checker.failures(ops, every, results)
    finally:
        w.cleanup()
    interp, imp = [], []
    for _ in range(START_PROBES):
        interp.append(fresh_process_seconds([sys.executable, "-c", "pass"]))
        imp.append(fresh_process_seconds([sys.executable, "-c", "import cantordyn.cli"]))
    interp_ms = statistics.median(interp) * 1e3
    import_ms = statistics.median(imp) * 1e3 - interp_ms

    spans = tracer.counts()

    def count(*names):
        return sum(spans.get(name, 0) for name in names)

    self_s = tracer.self_seconds()
    setops = count(*SETOPS)
    canon = count("space.canonical_words")
    after = count("homeo.PrefixMap.after")
    powers = count("homeo.PrefixMap.power")
    in_power = tracer.child_count("homeo.PrefixMap.after", "homeo.PrefixMap.power")
    metrics = {
        "space.self_s": (self_s.get("space", 0.0), "s"),
        "space.setops": (setops, "count"),
        "space.canonicalizations": (canon, "count"),
        "space.canon_per_setop": (canon / setops if setops else 0.0, "ratio"),
        "measure.self_s": (self_s.get("measure", 0.0), "s"),
        "measure.calls": (count("measure.measure_of", "measure.open_diff_mass"), "count"),
        "homeo.self_s": (self_s.get("homeo", 0.0), "s"),
        "homeo.compositions": (after, "count"),
        "homeo.powers": (powers, "count"),
        "homeo.compositions_per_power": (in_power / powers if powers else 0.0, "ratio"),
        "homeo.images": (count("homeo.PrefixMap.image", "homeo.PrefixMap.preimage"), "count"),
        "homeo.canonicalizations": (count("homeo.PrefixMap.canonical"), "count"),
        "topology.self_s": (self_s.get("topology", 0.0), "s"),
        "synth.self_s": (self_s.get("synth", 0.0), "s"),
        "docformat.self_s": (self_s.get("docformat", 0.0), "s"),
        "docformat.parses": (count("docformat.parse"), "count"),
        "docformat.prints": (count("docformat.print_document"), "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.interp_ms": (interp_ms, "ms"),
        "trace.overhead": (sum(lat_t) / sum(lat_u), "ratio"),
    }
    notes = {
        "space.canon_per_setop": f"{canon} canonicalizations / {setops} set operations",
        "homeo.compositions_per_power": f"{in_power} compositions inside {powers} powers",
        "cli.import_ms": f"median of {START_PROBES} fresh imports of cantordyn.cli minus cli.interp_ms",
        "cli.interp_ms": f"median of {START_PROBES} bare interpreter starts",
        "trace.overhead": f"traced {sum(lat_t) / 1e9:.3f} s / untraced {sum(lat_u) / 1e9:.3f} s",
    }
    print(f"{w.name} traced round: {len(ops)} operations, {len(tracer.name)} spans, "
          f"bench glue {self_s.get('bench', 0.0):.3f} s")
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{w.name} {name} {value:.6g} {unit}{note}")
    tracer.write_spans(scratch_dir() / f"spans-{w.name}-seed{args.seed}.bin")
    report_failures(checker)
    return result(2 * len(ops), failed, metrics)


def report_failures(checker):
    for label in checker.failed_labels[:10]:
        print(f"FAILED {label}", file=sys.stderr)


def result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
