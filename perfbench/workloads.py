"""The benchmark's workloads: seeded inputs, operations and result checks.

Each workload is a fixed batch of operations, run one at a time from one
process (a single-client closed loop).  An operation is one call into
cantordyn; its check runs afterwards, outside the timed region, against the
independent oracles in oracle.py.  Library calls go through module
attributes (homeo.weak_distance, not a bound name) so that the traced run's
wrappers see them.

Why these four:
- castle: the criterion-04 Rokhlin grid, the only workload that pays for
  PrefixMap.power and the growing unions of the castle search, and the one
  that shows the time budget tests/test_acceptance.py misses today.
- algebra: thousands of small map-algebra calls (weak distance, difference
  sets, composition, images, equality) with no power and few set
  operations; branch lookup and canonicalization in homeo dominate.  It is
  the control for castle-side changes.
- neighborhood: Euler-circuit synthesis, membership and 2^k defect sums;
  clopen algebra on many small sets instead of few large ones.
- cli: what a shell user pays per call, the only workload where docformat
  and cli do work.

BENCHMARK.json lists only castle and cli, which between them reach every
layer.  On a shared 2-vCPU host, slow spells last a minute or more, so a
run must be long to be steady, and the benchmark's total time allows long
runs for two workloads only.  algebra and neighborhood stay runnable by
name.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable

from cantordyn import cli, docformat, homeo, synth, topology
from cantordyn.homeo import Odometer, PrefixMap, as_prefix_map
from cantordyn.measure import Mixture, ProductMeasure
from cantordyn.space import DYADIC, Clopen, Signature

import oracle as orc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIGS = [DYADIC, Signature((), (2, 3)), Signature((3,), (2,))]
SIX = SIGS[1]


@dataclass
class Op:
    label: str
    fn: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list
    inputs: list  # plain-data view of the generated inputs, for their digest
    traced_ops: list = None  # cli: in-process variants of ops for the traced run
    cleanup: Callable[[], None] = field(default=lambda: None)


# -- generators: the families of tests/conftest.py, same draw order ------------


def random_clopen(rng, sig, depth=3):
    words = []
    for _ in range(rng.randint(0, 5)):
        d = rng.randint(1, depth)
        words.append(tuple(rng.randrange(sig.level(t)) for t in range(d)))
    return Clopen.make(sig, words)


def random_homeo(rng, sig, depth=3, shape=None):
    """Tree pair on a random domain partition, optionally with carries.

    shape=(family, depth) fixes the two draws that set the cost of a map."""
    c = rng.randrange(3) if shape is None else shape[0]
    if c == 0:
        return as_prefix_map(Odometer(sig, rng.choice([-2, -1, 1, 2, 3])))
    d = rng.randint(1, depth) if shape is None else shape[1]
    words = list(sig.words(d))
    perm = list(words)
    rng.shuffle(perm)
    tp = PrefixMap.tree_pair(sig, list(zip(words, perm)))
    if c == 1:
        return tp
    return as_prefix_map(Odometer(sig, 1)).after(tp)


def random_partition(rng, sig, shape):
    """The conftest partition family, its (depth, atoms) draw given."""
    d, k = shape
    words = list(sig.words(d))
    groups = [[] for _ in range(k)]
    for i, w in enumerate(words):
        groups[i % k if i < k else rng.randrange(k)].append(w)
    return [Clopen.make(sig, g) for g in groups]


# Shapes (family, depth) of random_homeo at depth 4 with their frequencies
# there: odometer one third, each tree-pair family at each depth one twelfth;
# interleaved so that any run of consecutive entries stays close to them.
MAP_SHAPES = [(0, 0), (1, 1), (2, 1), (0, 0), (1, 2), (2, 2),
              (0, 0), (1, 3), (2, 3), (0, 0), (1, 4), (2, 4)]


# -- castle ----------------------------------------------------------------------


def _skew_rows(t):
    return [Fraction(1, 3), Fraction(2, 3)]


def castle(seed):
    """Criterion-04 grid plus the same heights on the (2, 3) odometer.

    Seed 0 keeps the grid order of the acceptance test; any other seed
    shuffles the order.  The set of castles never changes with the seed."""
    uni = ProductMeasure.uniform(DYADIC)
    skew = ProductMeasure.make(DYADIC, [], [(Fraction(1, 3), Fraction(2, 3))])
    mix = Mixture.make(DYADIC, [(Fraction(1, 2), uni), (Fraction(1, 2), skew)])
    uni6 = ProductMeasure.uniform(SIX)
    # oracle view of each measure: (weight, weight-row function) components
    comps = {
        id(uni): [(1, orc.uniform_rows(DYADIC))],
        id(mix): [(Fraction(1, 2), orc.uniform_rows(DYADIC)), (Fraction(1, 2), _skew_rows)],
        id(uni6): [(1, orc.uniform_rows(SIX))],
    }
    grid = []
    for k in (1, 3):
        for n in (2, 3, 4):
            for eps in (Fraction(1, 4), Fraction(1, 8)):
                for measures in ([uni], [uni, mix]):
                    grid.append((Odometer(DYADIC, k), n, measures, eps))
    for n in (2, 3, 4):
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            grid.append((Odometer(SIX, 1), n, [uni6], eps))
    if seed:
        random.Random(seed).shuffle(grid)
    ops = []
    for T, n, measures, eps in grid:
        label = f"rokhlin_castle({T.sig.period} shift {T.shift}, n={n}, eps={eps}, {len(measures)} measures)"
        ops.append(Op(
            label,
            lambda T=T, n=n, ms=measures, eps=eps: synth.rokhlin_castle(T, n, ms, eps),
            lambda c, T=T, n=n, ms=measures, eps=eps: check_castle(
                T, n, eps, [comps[id(m)] for m in ms], c),
        ))
    return Workload("castle", ops, [o.label for o in ops])


def check_castle(T, n, eps, measure_comps, c):
    sig = T.sig
    brs = orc.branches_of(T)
    levels = [lvl.words for _, _, lvls in c.towers for lvl in lvls]
    if not orc.is_partition(sig, levels):
        return False
    bases = []
    for base, h, lvls in c.towers:
        if h < n or len(lvls) != h or not orc.same_set(sig, base.words, lvls[0].words):
            return False
        for a, b in zip(lvls, lvls[1:]):
            if not orc.same_set(sig, orc.image_words(sig, brs, a.words), b.words):
                return False
        bases.extend(base.words)
    if not orc.same_set(sig, c.base.words, bases):
        return False
    inv = orc.inverse_branches(brs)
    covered, cur = [], list(c.base.words)
    for _ in range(n):
        covered.extend(cur)
        cur = orc.image_words(sig, inv, cur)
    covered = orc.mask(sig, covered, orc.depth_of(covered))
    if len(c.bound) != len(measure_comps):
        return False
    for comp, b in zip(measure_comps, c.bound):
        if orc.mixture_mass(comp, covered) != b or not b > 1 - eps:
            return False
    return True


# -- algebra ---------------------------------------------------------------------


def algebra(seed, triples=3000):
    """Random (S, T, A) over the three test signatures, maps at depth 4.

    The signature and the shapes of S and T go through every combination in
    turn, so every seed does nearly the same mix of work."""
    rng = random.Random(seed)
    ops, inputs = [], []
    n_sigs, n_shapes = len(SIGS), len(MAP_SHAPES)
    for i in range(triples):
        sig = SIGS[i % n_sigs]
        S = random_homeo(rng, sig, shape=MAP_SHAPES[i // n_sigs % n_shapes])
        T = random_homeo(rng, sig, shape=MAP_SHAPES[i // (n_sigs * n_shapes) % n_shapes])
        A = random_clopen(rng, sig)
        inputs.append((S.branches, T.branches, A.words))
        ops += [
            Op("weak_distance", lambda S=S, T=T: homeo.weak_distance(S, T),
               lambda d, S=S, T=T: check_distance(S, T, d)),
            Op("difference_set", lambda S=S, T=T: homeo.difference_set(S, T),
               lambda E, S=S, T=T: check_difference(S, T, E)),
            Op("inverse(compose)", lambda S=S, T=T: homeo.inverse(homeo.compose(S, T)),
               lambda R, S=S, T=T: orc.chain_is_identity(
                   S.sig, [orc.branches_of(T), orc.branches_of(S), orc.branches_of(R)])),
            Op("image/preimage", lambda S=S, A=A: (S.image(A), S.preimage(A)),
               lambda r, S=S, A=A: check_images(S, A, r)),
            Op("==", lambda S=S, T=T: S == T,
               lambda r, S=S, T=T: r is orc.same_map(
                   S.sig, orc.branches_of(S), orc.branches_of(T))),
        ]
    return Workload("algebra", ops, inputs)


def check_distance(S, T, d):
    """Exact value from the oracle, and symmetry of the library's metric."""
    s, t = orc.branches_of(S), orc.branches_of(T)
    return d == orc.weak_distance(S.sig, s, t) and d == homeo.weak_distance(T, S)


def check_difference(S, T, E):
    sig = S.sig
    core = []
    for s, t in ((orc.branches_of(S), orc.branches_of(T)),
                 (orc.inverse_branches(orc.branches_of(S)),
                  orc.inverse_branches(orc.branches_of(T)))):
        depth = max(orc.domain_depth(s), orc.domain_depth(t))
        a, b = orc.map_table(sig, s, depth), orc.map_table(sig, t, depth)
        core += [w for w in a if a[w] != b[w]]
    return (
        orc.same_set(sig, core, E.core.words)
        and len(set(E.removed)) == len(E.removed)
        and all(orc.point_in(E.core.words, p.head, p.cycle) for p in E.removed)
    )


def check_images(S, A, result):
    img, pre = result
    brs = orc.branches_of(S)
    sig = S.sig
    return (
        orc.same_set(sig, orc.image_words(sig, brs, A.words), img.words)
        and orc.same_set(sig, orc.image_words(sig, orc.inverse_branches(brs), A.words), pre.words)
    )


# -- neighborhood --------------------------------------------------------------


def _exact_schedule(options):
    """Equal-probability outer choices, each split evenly over its inner
    choices, as a list whose frequencies are exactly those probabilities."""
    total = lcm(*(len(options) * len(inner) for inner in options.values()))
    out = []
    for outer, inner in options.items():
        per = total // (len(options) * len(inner))
        out += [(outer, x) for x in inner for _ in range(per)]
    return out


# The batch draws its (T, partition) pairs with the frequencies of the synthesis
# survey's mix (tests/conftest.py random_homeo at depth 4, random_partition
# with up to 16 atoms): every partition shape exactly, and within each
# partition shape the map shapes in turn.  Every seed pairs the same shapes,
# so the cost of a pass does not swing with how many heavy maps a seed
# happens to pair with the 8-atom partitions, whose defect sums dominate.
PARTITION_SHAPES = _exact_schedule(
    {d: list(range(2, min(16, 2**d) + 1)) for d in (1, 2, 3, 4)}
)


def neighborhood(seed):
    """Synthesis, membership and defect over random (T, partition) pairs."""
    rng = random.Random(seed)
    uni = ProductMeasure.uniform(DYADIC)
    ident = PrefixMap.identity(DYADIC)
    shapes = []
    for part_shape in sorted(set(PARTITION_SHAPES)):
        shapes += [
            (MAP_SHAPES[j % len(MAP_SHAPES)], part_shape)
            for j in range(PARTITION_SHAPES.count(part_shape))
        ]
    rng.shuffle(shapes)
    ops, inputs = [], []
    for map_shape, part_shape in shapes:
        T = random_homeo(rng, DYADIC, depth=4, shape=map_shape)
        part = random_partition(rng, DYADIC, shape=part_shape)
        inputs.append((T.branches, [a.words for a in part]))
        box = {}

        def synthesize(fn, key, T=T, part=part, box=box):
            box[key] = r = fn(T, part)
            return r

        def chosen(box=box):
            for key in ("odometer", "periodic"):
                if box[key].ok:
                    return box[key].homeo
            return ident

        ops += [
            Op("odometer_in_weak_neighborhood",
               lambda s=synthesize: s(synth.odometer_in_weak_neighborhood, "odometer"),
               lambda r, T=T, part=part: check_synthesis(T, part, r, periodic=False)),
            Op("periodic_in_weak_neighborhood",
               lambda s=synthesize: s(synth.periodic_in_weak_neighborhood, "periodic"),
               lambda r, T=T, part=part: check_synthesis(T, part, r, periodic=True)),
            Op("in_neighborhood",
               lambda T=T, part=part, chosen=chosen: topology.in_neighborhood(
                   chosen(), topology.PNeighborhood(T, tuple(part))),
               lambda m, T=T, part=part, chosen=chosen: check_membership(T, part, chosen(), m)),
        ]
        if len(part) <= 8:
            ops.append(Op(
                "defect_over_partition",
                lambda T=T, part=part, chosen=chosen, mu=uni: topology.defect_over_partition(
                    "tau_prime", chosen(), T, mu, part),
                lambda v, T=T, part=part, chosen=chosen: check_defect(T, part, chosen(), v),
            ))
    return Workload("neighborhood", ops, inputs)


def check_synthesis(T, part, res, periodic):
    sig = T.sig
    t = orc.branches_of(T)
    if res.ok:
        s = orc.branches_of(res.homeo)
        if not all(
            orc.same_set(sig, orc.image_words(sig, s, F.words), orc.image_words(sig, t, F.words))
            for F in part
        ):
            return False
        if periodic:
            return orc.chain_is_identity(sig, [s] * res.certificate["order"])
        return res.certificate["cycle_length"] >= 1
    F = res.witness
    d = orc.depth_of(F.words, *(a.words for a in part))
    fm = orc.mask(sig, F.words, d)
    atoms = [orc.mask(sig, a.words, d) for a in part]
    union = frozenset().union(*(a for a in atoms if a & fm))
    if not fm or len(fm) == len(orc.words_at(sig, d)) or union != fm:
        return False
    tf = orc.image_words(sig, t, F.words)
    d2 = orc.depth_of(tf, F.words)
    tm, fm = orc.mask(sig, tf, d2), orc.mask(sig, F.words, d2)
    return tm <= fm or fm <= tm


def check_membership(T, part, S, m):
    sig = T.sig
    s, t = orc.branches_of(S), orc.branches_of(T)
    expected = all(
        orc.same_set(sig, orc.image_words(sig, s, F.words), orc.image_words(sig, t, F.words))
        for F in part
    )
    return m.ok is expected


def check_defect(T, part, S, v):
    sig = T.sig
    s, t = orc.branches_of(S), orc.branches_of(T)
    return v == orc.max_symmetric_defect(
        sig,
        [orc.image_words(sig, s, F.words) for F in part],
        [orc.image_words(sig, t, F.words) for F in part],
        orc.uniform_rows(sig),
    )


# -- cli -------------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    stdout: bytes
    code: int


CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli_subprocess(argv):
    """One fresh `python -m cantordyn.cli` child."""
    p = subprocess.run(
        [sys.executable, "-m", "cantordyn.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, env=CLI_ENV,
    )
    return CliResult(p.stdout, p.returncode)


def run_cli_inprocess(argv):
    """cantordyn.cli.main in this process, for the traced run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return CliResult(out.getvalue().encode(), code)


def cli_workload(seed, gen_runs=3):
    """The CLI_FIXTURES of the acceptance test with their recorded output,
    plus `gen` and `compose` over .cdyn files generated from the seed.

    Seed 0 runs the fixtures in their recorded order; other seeds shuffle."""
    golden = json.loads((HERE / "golden_cli.json").read_text())
    rng = random.Random(seed)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch_dir()))
    jobs = [
        (g["argv"], lambda r, g=g: r.code == g["code"] and r.stdout == g["stdout"].encode())
        for g in golden
    ]
    inputs = [g["argv"] for g in golden]
    for _ in range(gen_runs):
        s = rng.randrange(10**6)
        argv = ["gen", "--seed", str(s), "--count", "5"]
        jobs.append((argv, lambda r, s=s: r.code == 0 and r.stdout == expected_gen(s, 5)))
        inputs.append(argv)
    for k, sig in enumerate(SIGS):
        maps = [random_homeo(rng, sig, depth=4) for _ in range(3)]
        files = []
        for i, m in enumerate(maps):
            f = workdir / f"map{k}{i}.cdyn"
            f.write_text(docformat.print_document(docformat.doc_homeo(m)))
            files.append(str(f))
            inputs.append(m.branches)
        for count in (2, 3):
            argv = ["compose", *files[:count]]
            jobs.append((argv, lambda r, ms=maps[:count]: check_compose(ms, r)))
    if seed:
        rng.shuffle(jobs)

    def make(run):
        return [Op(" ".join(argv), lambda argv=argv: run(argv), check) for argv, check in jobs]

    return Workload(
        "cli", make(run_cli_subprocess), inputs,
        traced_ops=make(run_cli_inprocess),
        cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True),
    )


def expected_gen(seed, count):
    r = random.Random(seed)
    docs = [cli.random_document(r) for _ in range(count)]
    if any(docformat.parse(docformat.print_document(d)) != d for d in docs):
        return None
    return ("\n".join(docformat.print_document(d).rstrip("\n") for d in docs) + "\n").encode()


def check_compose(maps, r):
    if r.code != 0:
        return False
    doc = docformat.parse(r.stdout.decode())
    if doc.kind != "homeo":
        return False
    sig = maps[0].sig
    chain = [orc.branches_of(m) for m in reversed(maps)]
    chain.append(orc.inverse_branches(orc.branches_of(doc.value)))
    return orc.chain_is_identity(sig, chain)


def scratch_dir():
    """Run files live in .perfbench-out/ at the checkout root."""
    d = ROOT / ".perfbench-out"
    d.mkdir(exist_ok=True)
    return d


BUILDERS = {
    "castle": castle,
    "algebra": algebra,
    "neighborhood": neighborhood,
    "cli": cli_workload,
}
