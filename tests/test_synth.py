import hashlib
import random
import time
from fractions import Fraction
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import synth
from cantordyn.space import (
    DYADIC,
    Clopen,
    Point,
    Signature,
    is_partition,
    partition_at_depth,
)
from cantordyn.measure import Dirac, Mixture, ProductMeasure, measure_of, open_diff_mass
from cantordyn.homeo import (
    Odometer,
    PrefixMap,
    as_prefix_map,
    compose,
    difference_set,
    period_structure,
    power,
    weak_distance,
)
from cantordyn.synth import (
    _castle,
    _first_return_towers,
    _cycle_strands,
    _iterates,
    _shifted_top_castle,
    _sliced_castle,
    _tower_strands,
    aperiodize_periodic,
    canonical_clopen_homeo,
    euler_circuit,
    extend_cyclic_partition_to_odometer,
    fundamental_domain,
    minimal_circulation,
    odometer_in_weak_neighborhood,
    orbit_of,
    overlap_graph,
    periodic_approx_odometer,
    periodic_in_weak_neighborhood,
    rank1_in_uniform_neighborhood,
    rokhlin_castle,
    truncation,
)
from cantordyn.gen import random_clopen, random_homeo, random_partition, random_point

from conftest import SIGS, mask

SIG = DYADIC
SWAP = PrefixMap.tree_pair(SIG, [((0,), (1,)), ((1,), (0,))])
DISS = PrefixMap.tree_pair(
    SIG, [((0,), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (1,))]
)
UNI = ProductMeasure.uniform(SIG)
OD = Odometer(SIG, 1)


def test_canonical_clopen_homeo_maps_onto_target():
    A = Clopen.make(SIG, [(0,)])
    B = Clopen.make(SIG, [(1, 0), (0, 1)])
    frag = canonical_clopen_homeo(A, B)
    m = PrefixMap(SIG, tuple(sorted(frag)))
    assert m.image(A) == B
    with pytest.raises(ValueError):
        canonical_clopen_homeo(A, Clopen.empty(SIG))


BASE23 = Signature((), (2, 3))


def _parity_class(A):
    """(#even-length words + 3 #odd-length words) mod 5, over base(;2,3).

    Splitting an even-length word gives 2 odd-length ones (2 * 3 = 1 mod 5)
    and splitting an odd-length word 3 even-length ones, so the class does
    not depend on the words chosen for A.
    """
    odd = sum(len(w) % 2 for w in A.words)
    return (len(A.words) - odd + 3 * odd) % 5


def test_maps_over_base23_keep_the_parity_class():
    """Every branch keeps the parity of the word length, so no map sends a
    set onto one of another class."""
    rng = random.Random(71)
    for _ in range(500):
        T = random_homeo(rng, BASE23)
        if rng.random() < 0.5:
            T = T.after(random_homeo(rng, BASE23))
        A = random_clopen(rng, BASE23)
        assert _parity_class(T.image(A)) == _parity_class(A)


def test_canonical_clopen_homeo_refuses_sets_of_another_parity_class():
    full, A = Clopen.full(BASE23), Clopen.cylinder(BASE23, (0,))
    assert (_parity_class(full), _parity_class(A)) == (1, 3)
    with pytest.raises(ValueError, match="tail alphabets differ"):
        canonical_clopen_homeo(full, A)


def test_minimal_circulation_balance_and_minimality():
    # directed 3-cycle: all multiplicities stay 1
    arcs = [(0, 1), (1, 2), (2, 0)]
    m = minimal_circulation(3, arcs)
    assert m == {a: 1 for a in arcs}
    # two loops sharing a vertex: still all ones
    arcs = [(0, 1), (1, 0), (0, 2), (2, 0)]
    m = minimal_circulation(3, arcs)
    assert m == {a: 1 for a in arcs}
    # imbalance forces a doubled arc: 0->1 plus the path 1->2->0 and arc 1->0
    arcs = [(0, 1), (1, 0), (1, 2), (2, 0)]
    m = minimal_circulation(3, arcs)
    for v in range(3):
        assert sum(m[a] for a in arcs if a[0] == v) == sum(
            m[a] for a in arcs if a[1] == v
        )
    assert all(x >= 1 for x in m.values())
    assert sum(m.values()) == 5


def test_euler_circuit_uses_every_arc_once():
    mult = {(0, 1): 2, (1, 0): 1, (1, 2): 1, (2, 0): 1}
    circ = euler_circuit([0, 1, 2], mult, 0)
    assert len(circ) == sum(mult.values())
    # consecutive arcs chain up and the walk closes
    for (a, b, _), (c, d, _) in zip(circ, circ[1:]):
        assert b == c
    assert circ[0][0] == circ[-1][1] == 0
    used = {}
    for i, j, k in circ:
        used[(i, j)] = used.get((i, j), 0) + 1
    assert used == mult


def test_overlap_graph_odometer_depth1():
    g = overlap_graph(OD, partition_at_depth(SIG, 1))
    assert g.arcs == [(0, 1), (1, 0)]
    assert g.balance_feasible
    assert g.multiplicities == {(0, 1): 1, (1, 0): 1}
    dot = g.to_dot()
    assert "v0 -> v1" in dot and "digraph" in dot


def test_overlap_graph_dissipative_is_infeasible():
    g = overlap_graph(DISS, partition_at_depth(SIG, 1))
    assert not g.balance_feasible


def _block_code(rng, sig, splits):
    """A complete prefix code whose words all see the same tail signature:
    the depth-q words split, period block by period block, at random."""
    q, p = len(sig.preperiod), len(sig.period)
    words = sig.words(q)
    for _ in range(splits):
        w = words.pop(rng.randrange(len(words)))
        words += [w + r for r in sig.shift(len(w)).words(p)]
    return words


def _reachable(arcs, v):
    seen, todo = {v}, [v]
    while todo:
        u = todo.pop()
        for i, j in arcs:
            if i == u and j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


def test_overlap_graph_against_reachability_oracle():
    """Balanced multiplicities exist iff every weak component is strongly
    connected, and they are the minimal circulation of each component."""
    rng = random.Random(47)
    seen = set()
    for i in range(150):
        sig = SIGS[i % 3]
        k = rng.randint(0, 3)
        dom, ran = _block_code(rng, sig, k), _block_code(rng, sig, k)
        rng.shuffle(ran)
        T = PrefixMap.tree_pair(sig, list(zip(dom, ran)))
        if rng.random() < 0.5:
            T = T.after(random_homeo(rng, sig))
        g = overlap_graph(T, random_partition(rng, sig, max_atoms=8))
        undirected = g.arcs + [(j, i) for i, j in g.arcs]
        weak = {frozenset(_reachable(undirected, v)) for v in range(g.n)}
        strong = all(c <= _reachable(g.arcs, v) for c in weak for v in c)
        assert g.balance_feasible == strong
        seen.add(strong)
        if strong:
            expected = {}
            for c in weak:
                sub = [a for a in g.arcs if a[0] in c]
                expected.update(minimal_circulation(g.n, sub))
            assert g.multiplicities == expected
        else:
            assert g.multiplicities is None
    assert seen == {True, False}


def test_odometer_synthesis_matches_target_on_atoms():
    rng = random.Random(41)
    for _ in range(25):
        T = random_homeo(rng, SIG)
        part = random_partition(rng, SIG, max_atoms=8)
        res = odometer_in_weak_neighborhood(T, part)
        Tm = as_prefix_map(T)
        if res.ok:
            assert res.certificate["set_images_match"]
            for F in part:
                assert res.homeo.image(F) == Tm.image(F)
            # the pieces form one cycle under the synthesized map
            pieces = res.pieces
            for i, p in enumerate(pieces):
                assert res.homeo.image(p) == pieces[(i + 1) % len(pieces)]
            assert is_partition(pieces)
        else:
            F = res.witness
            assert F is not None and not F.is_empty
            assert F != Clopen.full(SIG)
            assert Tm.image(F) <= F or F <= Tm.image(F)


def test_odometer_synthesis_dissipative_witness():
    res = odometer_in_weak_neighborhood(DISS, partition_at_depth(SIG, 1))
    assert not res.ok
    assert res.witness == Clopen.cylinder(SIG, (0,))
    Dm = as_prefix_map(DISS)
    assert Dm.image(res.witness) <= res.witness


def test_periodic_synthesis_has_finite_order():
    rng = random.Random(43)
    for _ in range(20):
        T = random_homeo(rng, SIG)
        part = random_partition(rng, SIG, max_atoms=8)
        res = periodic_in_weak_neighborhood(T, part)
        if not res.ok:
            assert res.witness is not None
            continue
        assert res.certificate["set_images_match"]
        order = res.certificate["order"]
        assert as_prefix_map(power(res.homeo, order)).is_identity()


# sha256 of the overlap graphs and both Euler syntheses below as first
# recorded; a change in any arc, component, multiplicity, feasibility,
# synthesized map, witness, certificate, piece or refusal message changes it
SYNTHESIS_SHA256 = "0ccfe03b59f0ec80c76ceccba157a3012831f890a09ef71a32ac909bb58269a9"


def test_synthesis_digest():
    h = hashlib.sha256()
    rng = random.Random(12345)
    for i in range(600):
        sig = SIGS[i % 3]
        T = random_homeo(rng, sig)
        if rng.random() < 0.5:
            T = T.after(random_homeo(rng, sig))
        part = random_partition(rng, sig, max_atoms=10)
        g = overlap_graph(T, part)
        out = [g.arcs, sorted(g.components), g.multiplicities, g.balance_feasible]
        for synthesize in (odometer_in_weak_neighborhood, periodic_in_weak_neighborhood):
            try:
                r = synthesize(T, part)
                out.append((r.ok, r.homeo, r.witness, r.certificate, r.pieces))
            except ValueError as exc:
                out.append(str(exc))
        h.update(repr(out).encode() + b"\n")
    assert h.hexdigest() == SYNTHESIS_SHA256


def test_extend_cyclic_partition():
    cyc = [Clopen.cylinder(SIG, (0,)), Clopen.cylinder(SIG, (1,))]
    t = extend_cyclic_partition_to_odometer(cyc, levels=3)
    assert t.heights() == [2, 4, 8]
    with pytest.raises(ValueError):
        extend_cyclic_partition_to_odometer([cyc[0]])


@pytest.mark.parametrize(
    "sig,p",
    [
        (DYADIC, 1),
        (DYADIC, 2),
        (DYADIC, 4),
        (Signature((), (3,)), 3),
        (Signature((), (2, 3)), 6),
    ],
)
def test_fundamental_domain_partitions(sig, p):
    P = truncation(sig, _depth_for(sig, p))
    E = fundamental_domain(P, p)
    Pm = as_prefix_map(P)
    images = [Pm.power(i).image(E) for i in range(p)]
    assert is_partition(images)


def _depth_for(sig, p):
    t, n = 0, 1
    while n < p:
        n *= sig.level(t)
        t += 1
    assert n == p
    return t


def test_fundamental_domain_rejects_shorter_periods():
    # depth-2 truncation has order 4, so it is not exactly 2-periodic
    with pytest.raises(ValueError):
        fundamental_domain(truncation(SIG, 2), 2)
    # identity has fixed points, not 2-periodic
    with pytest.raises(ValueError):
        fundamental_domain(PrefixMap.identity(SIG), 2)


def test_fundamental_domain_refusals_name_the_period(compositions):
    ws = SIG.words(3)
    # a 4-cycle on the first four depth-3 cylinders, 2-cycles on the rest
    images = [ws[1], ws[2], ws[3], ws[0], ws[5], ws[4], ws[7], ws[6]]
    P = PrefixMap.tree_pair(SIG, list(zip(ws, images)))
    with pytest.raises(ValueError, match="period 2 < 4"):
        fundamental_domain(P, 4)
    # a wrong period is refused by square and multiply, not p compositions
    del compositions[:]
    with pytest.raises(ValueError, match="not exactly 1000000-periodic"):
        fundamental_domain(OD, 10**6)
    assert len(compositions) <= 2 * (10**6).bit_length()


def test_fundamental_domain_refuses_a_shorter_period_as_it_composes(compositions):
    """SWAP^2 is the identity: the refusal comes at q = 2, not after
    composing all of P, ..., P^(p-1)."""
    p = 40000
    with pytest.raises(ValueError, match=f"period 2 < {p}"):
        fundamental_domain(SWAP, p)
    assert len(compositions) <= 2 * p.bit_length() + 2


def test_aperiodize_swap():
    T, cert = aperiodize_periodic(SWAP, 2)
    assert cert["period"] == 2
    assert cert["weak_distance"] < 2
    info = period_structure(T, 8)
    assert info["aperiodic_up_to_bound"]
    T1, cert1 = aperiodize_periodic(SWAP, 1)
    assert cert1["weak_distance"] < 1
    assert period_structure(T1, 8)["aperiodic_up_to_bound"]


def test_aperiodize_rejects_aperiodic_input():
    with pytest.raises(ValueError):
        aperiodize_periodic(as_prefix_map(OD), Fraction(1, 2))


def test_aperiodize_tests_each_cell_once(images):
    """Each cell of the fundamental domain's split is imaged at most once.
    P pairs [00] with the shallower [1] and [010] with [011], so the cells
    under 010 are narrow enough a level before those under 00; rescanning
    the cells from the start after every split re-tested them each time,
    33,673 images at epsilon = 2^-8 against 905 now."""
    P = PrefixMap.tree_pair(
        SIG,
        [((0, 0), (1,)), ((1,), (0, 0)), ((0, 1, 0), (0, 1, 1)), ((0, 1, 1), (0, 1, 0))],
    )
    T, cert = aperiodize_periodic(P, Fraction(1, 2**8))
    assert T == PrefixMap.make(
        SIG,
        [((0, 0), (1,), 0), ((0, 1, 0), (0, 1, 1), 0), ((0, 1, 1), (0, 1, 0), 128),
         ((1,), (0, 0), 512)],
    )
    assert cert["weak_distance"] == Fraction(1, 512)
    assert len(images) <= 1000
    # the swap's answer is the one the rescanning search gave
    T, cert = aperiodize_periodic(SWAP, Fraction(1, 2**12))
    assert T == PrefixMap.make(SIG, [((0,), (1,), 0), ((1,), (0,), 2**13)])
    assert cert == {
        "weak_distance": Fraction(1, 2**13),
        "period": 2,
        "fundamental_domain": Clopen.cylinder(SIG, (0,)),
    }


def test_aperiodize_refuses_too_many_cells(monkeypatch):
    monkeypatch.setattr(synth, "APERIODIZE_MAX_CELLS", 16)
    # the cells under [0] of diameter below epsilon / 2: 16, then 32
    T, _ = aperiodize_periodic(SWAP, Fraction(1, 2**3))
    assert T == PrefixMap.make(SIG, [((0,), (1,), 0), ((1,), (0,), 16)])
    with pytest.raises(ValueError, match="aperiodization needs more than 16 cells"):
        aperiodize_periodic(SWAP, Fraction(1, 2**4))


def _dyadic_value(w):
    return sum(d << t for t, d in enumerate(w))


def _dyadic_word(v, depth):
    return tuple((v >> t) & 1 for t in range(depth))


def _power_table(Tm, sep):
    """j -> T^j for 0 < |j| < sep, all composed before it is handed out."""
    return {j: Tm.power(j) for j in range(1 - sep, sep) if j}.__getitem__


def _strands_of(Tm, depth, sep):
    """(s, pull) -> the strands that rokhlin_castle builds at this depth for
    separation s <= sep: cycle slices when T permutes the depth-d cylinders,
    return towers otherwise."""
    cycles = Tm.cycles(depth)
    if cycles is not None:
        return partial(_cycle_strands, cycles)
    powers, Tinv = _power_table(Tm, sep), Tm.inverse()
    return lambda s, pull: _tower_strands(powers, Tinv, s, depth, pull)


def _base(sig, strands, pull=0):
    """The union of the strands' base pieces, each pull places in."""
    return Clopen.make(sig, chain(*(strand[pull] for strand in strands)))


def _merged(sig, strands):
    """Strands of one length merged level by level, shortest first: what the
    strands of single base words give for their return towers."""
    by_length = {}
    for strand in strands:
        by_length.setdefault(len(strand), []).append(strand)
    return [
        [Clopen.make(sig, chain(*level)) for level in zip(*by_length[h])]
        for h in sorted(by_length)
    ]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_separated_base_separates_and_covers(k, n):
    """The base is n-separated, its |j| < n images cover the space, and so
    every point of it returns after n to 2n-1 steps.  T^j acts on the depth-d
    word mask as adding j*k to the binary value, level 0 least significant."""
    Tm = as_prefix_map(Odometer(SIG, k))
    Tinv, powers = Tm.inverse(), _power_table(Tm, n)
    found = [(d, _tower_strands(powers, Tinv, n, d, 0)) for d in range(1, 7)]
    found = [(d, strands) for d, strands in found if strands is not None]
    assert found
    for depth, strands in found:
        B = _base(SIG, strands)
        assert all(len(w) <= depth for w in B.words)
        size = 2**depth
        base = {_dyadic_value(w) for w in mask(B, depth)}

        def shifted(j):
            return {(v + j * k) % size for v in base}

        for j in range(1, n):
            assert not shifted(j) & base
        covered = set().union(*(shifted(j) for j in range(-(n - 1), n)))
        assert covered == set(range(size))
        for v in base:
            h = next((h for h in range(1, 2 * n) if (v + h * k) % size in base), None)
            assert h is not None and n <= h
        # the integer model agrees with the library map on the base
        for j in range(-(n - 1), n):
            img = {_dyadic_word(v, depth) for v in shifted(j)}
            assert mask(Tm.power(j).image(B), depth) == img


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_separated_base_steps_its_powers(sig, n, compositions):
    """The tower path asks for T^j, 0 < |j| < n, and for nothing else, and
    composes none itself: the search's power list composes them (see
    test_rokhlin_castle_composes_each_power_once)."""
    Tm = as_prefix_map(Odometer(sig, 1))
    table = _power_table(Tm, n)
    asked = []

    def powers(j):
        asked.append(j)
        return table(j)

    compositions.clear()
    for pull in (0, n):
        assert _tower_strands(powers, Tm.inverse(), n, 4, pull) is not None
    assert compositions == []
    assert set(asked) == {j for j in range(1 - n, n) if j}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(SIGS),
    st.sampled_from([None, 1, -1, 2, -2, 3, -3]),
    st.randoms(use_true_random=False),
    st.integers(2, 5),
    st.integers(1, 6),
)
def test_cycle_path_matches_composition_path(sig, k, rng, n, depth):
    """On a synchronous map (an odometer shift, or a random_homeo map when k
    is None) the depth-d cycles give the cover answer that composing powers
    of T gives, and their strands, one per base word, merge into the return
    towers of the greedy clopen base with their pullbacks."""
    Tm = random_homeo(rng, sig) if k is None else as_prefix_map(Odometer(sig, k))
    Tinv, powers = Tm.inverse(), _power_table(Tm, n)
    depth = max(depth, Tm.max_domain_depth())
    cycles = Tm.cycles(depth)
    assert cycles is not None
    for pull in (0, n):
        words = _cycle_strands(cycles, n, pull)
        towers = _tower_strands(powers, Tinv, n, depth, pull)
        assert (words is None) == (towers is None)
        if words is not None:
            assert all(len(w) == depth for strand in words for (w,) in strand)
            expected = [[Clopen(sig, lvl) for lvl in strand] for strand in towers]
            assert _merged(sig, words) == expected


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("k", [1, 3])
def test_cycle_path_composes_nothing(sig, k, compositions):
    Tm = as_prefix_map(Odometer(sig, k))
    compositions.clear()
    for depth in range(1, 7):
        cycles = Tm.cycles(depth)
        for n in (2, 5, 18):
            for pull in (0, n):
                _cycle_strands(cycles, n, pull)
    assert compositions == []


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_shifted_top_castle_steps_back(sig, k, n, monkeypatch):
    """The castle over T^-K of the tops, found without any power call, is the
    one chosen from the powers directly, the larger K winning ties."""
    Tm = as_prefix_map(Odometer(sig, k))
    Tinv, powers = Tm.inverse(), _power_table(Tm, n)
    measures = [ProductMeasure.uniform(sig)]
    depth = next(d for d in range(1, 8) if _tower_strands(powers, Tinv, n, d, 0))
    B0 = _base(sig, _tower_strands(powers, Tinv, n, depth, 0))
    towers0 = _first_return_towers(Tm, Tinv, B0, cap=2 * n)
    V = Clopen.empty(sig)
    for _, _, levels in towers0:
        V = V | levels[-1]

    def covered_bounds(B):
        return [measure_of(mu, orbit_of(Tinv, B, n)) for mu in measures]

    candidates = []
    for K in range(n):
        B = Tm.power(-K).image(V)
        candidates.append((min(covered_bounds(B)), K, B))
    _, _, expected = max(candidates, key=lambda c: c[:2])

    def no_power(self, n):
        raise AssertionError("power called")

    monkeypatch.setattr(PrefixMap, "power", no_power)
    cycles = Tm.cycles(depth)
    for strands in (
        _tower_strands(powers, Tinv, n, depth, n),
        _cycle_strands(cycles, n, n),
    ):
        castle = _pass_castle(sig, strands, _shifted_top_castle, n, measures)
        assert castle.base == expected
    assert castle.bound == covered_bounds(castle.base)


def _pass_castle(sig, strands, castle_pass, n, measures):
    """The castle of the windows that one pass picks over the strands."""
    return _castle(sig, strands, *castle_pass(strands, n, measures))


def _skew(sig):
    """Product measure giving digit i of a level of size m the weight
    2(i+1)/(m(m+1)): 1/3 and 2/3 on a level of size 2."""

    def row(t):
        m = sig.level(t)
        return [Fraction(2 * (i + 1), m * (m + 1)) for i in range(m)]

    pre = len(sig.preperiod)
    return ProductMeasure.make(
        sig, [row(t) for t in range(pre)], [row(pre + t) for t in range(len(sig.period))]
    )


def _castle_measure(kind, sig, rng):
    uni = ProductMeasure.uniform(sig)
    if kind == "uniform":
        return uni
    if kind == "skew":
        return _skew(sig)
    return Mixture.make(
        sig, [(Fraction(3, 4), uni), (Fraction(1, 4), Dirac(sig, random_point(rng, sig)))]
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SIGS),
    st.sampled_from([1, -1, 3, -3, None, "tree pair"]),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(["uniform", "skew", "atom"]), min_size=1, max_size=2),
    st.integers(2, 4),
    st.integers(1, 3),
)
def test_castle_bounds_are_the_measures_of_the_cover(sig, k, rng, kinds, n, slices):
    """The shifted-top and sliced passes give the base and the bounds that
    measuring the union of T^-j(B), j < n, of every candidate base gives,
    and their towers are the first-return towers over that base.  The maps
    are odometer shifts, random_homeo maps (k None) and the odometer
    conjugated by the uneven tree pair DISS, which is not synchronous."""
    if k == "tree pair":
        sig, Tm = SIG, DISS.after(as_prefix_map(OD)).after(DISS.inverse())
    elif k is None:
        Tm = random_homeo(rng, sig)
    else:
        Tm = as_prefix_map(Odometer(sig, k))
    measures = [_castle_measure(kind, sig, rng) for kind in kinds]
    Tinv = Tm.inverse()
    sep = slices * n
    found = ((d, _strands_of(Tm, d, sep)) for d in range(1, 7))
    depth, strands_of = next(((d, f) for d, f in found if f(sep, 0)), (None, None))
    if depth is None:  # a periodic random_homeo map
        return
    B0 = _base(sig, strands_of(sep, 0))
    towers0 = _first_return_towers(Tm, Tinv, B0, cap=2 * sep)

    def covered_bounds(B):
        return [measure_of(mu, orbit_of(Tinv, B, n)) for mu in measures]

    # T^-K of the tops, K < n; the larger K wins ties
    V = Clopen.empty(sig)
    for _, _, levels in towers0:
        V = V | levels[-1]
    shifted = [
        (min(covered_bounds(B)), K, B) for K, B in enumerate(_iterates(Tinv, V, n))
    ]
    _, _, B = max(shifted, key=lambda c: c[:2])

    def check(castle_pass, pull, B):
        strands = strands_of(sep, pull)
        castle = _pass_castle(sig, strands, castle_pass, n, measures)
        assert (castle.base, castle.bound) == (B, covered_bounds(B))
        assert castle.towers == _first_return_towers(Tm, Tinv, B, cap=2 * sep)

    check(_shifted_top_castle, n, B)
    # height-n blocks with the remainder on block b*; the first b* wins ties
    sliced = []
    for bstar in range(min(h // n for _, h, _ in towers0)):
        B = Clopen.empty(sig)
        for _, h, levels in towers0:
            blocks, r = divmod(h, n)
            start = 0
            for b in range(blocks):
                B = B | levels[start]
                start += n + (r if b == min(bstar, blocks - 1) else 0)
        sliced.append(B)
    B = max(sliced, key=lambda B: min(covered_bounds(B)))
    check(_sliced_castle, 0, B)


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_castle_passes_image_little(sig, k, n, images):
    """Only the strands image, and the passes read windows off them.  On the
    composition path the pullbacks cost pull images per return tower but
    the last, whose pullbacks are what the others leave of the levels; on
    cycle positions nothing is imaged at all."""
    Tm = as_prefix_map(Odometer(sig, k))
    Tinv = Tm.inverse()
    measures = [ProductMeasure.uniform(sig), _skew(sig)]
    for sep in (n, 3 * n):
        powers = _power_table(Tm, sep)
        depth = next(d for d in range(1, 8) if _tower_strands(powers, Tinv, sep, d, 0))
        images.clear()
        flat = _tower_strands(powers, Tinv, sep, depth, 0)
        unpulled = len(images)
        images.clear()
        pulled = _tower_strands(powers, Tinv, sep, depth, n)
        assert len(images) == unpulled + n * (len(pulled) - 1)
        images.clear()
        _pass_castle(sig, flat, _sliced_castle, n, measures)
        _pass_castle(sig, pulled, _shifted_top_castle, n, measures)
        for pull in (0, n):
            _cycle_strands(Tm.cycles(depth), sep, pull)
        assert images == []


def _cycle_branches(words):
    """Branches sending each word to the next, the last back to the first
    with carry 1."""
    m = len(words)
    return [(words[i], words[(i + 1) % m], int(i == m - 1)) for i in range(m)]


# the depth-3 cylinders in a 3-cycle and a 5-cycle, each closing with carry 1:
# synchronous, aperiodic, and its separated bases return at two heights
TWO_CYCLES = PrefixMap.make(
    SIG,
    _cycle_branches([(0, 0, 0), (0, 0, 1), (0, 1, 0)])
    + _cycle_branches([(0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]),
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_castle_passes_over_towers_of_two_heights(n, images):
    """With two return heights the composition path images the first
    tower's base and takes the last tower's pullbacks from what the first
    leaves of the levels.  Both passes return the first-return towers over
    their base and the measures of the union of T^-j of it, j < n."""
    Tm, Tinv = TWO_CYCLES, TWO_CYCLES.inverse()
    measures = [UNI, _skew(SIG)]
    for sep in (n, 3 * n):
        powers = _power_table(Tm, sep)
        depth = next(d for d in range(1, 8) if _tower_strands(powers, Tinv, sep, d, 0))
        B0 = _base(SIG, _tower_strands(powers, Tinv, sep, depth, 0))
        towers0 = _first_return_towers(Tm, Tinv, B0, cap=2 * sep)
        assert len({h for _, h, _ in towers0}) == 2
        images.clear()
        flat = _tower_strands(powers, Tinv, sep, depth, 0)
        unpulled = len(images)
        images.clear()
        pulled = _tower_strands(powers, Tinv, sep, depth, n)
        assert len(images) - unpulled == n * (len(towers0) - 1) > 0
        shifted = _pass_castle(SIG, pulled, _shifted_top_castle, n, measures)
        for castle in (shifted, _pass_castle(SIG, flat, _sliced_castle, n, measures)):
            assert castle.towers == _first_return_towers(Tm, Tinv, castle.base, 2 * sep)
            cover = orbit_of(Tinv, castle.base, n)
            assert castle.bound == [measure_of(mu, cover) for mu in measures]


@pytest.mark.parametrize(
    "T, n",
    [
        pytest.param(Odometer(sig, k), n, id=f"sig{i}-shift{k}-n{n}")
        for i, sig in enumerate(SIGS)
        for k in (1, 3)
        for n in (2, 3, 4)
    ]
    + [pytest.param(TWO_CYCLES, n, id=f"two_cycles-n{n}") for n in (2, 3, 4)],
)
def test_cycle_strands_give_the_composition_castles(T, n, images):
    """On a synchronous map the strands read off cycle positions, one per
    base word, give both passes the castles (towers, base and bounds) that
    the strands of the composition path, one per return tower, give; those
    are the first-return towers over their base with the measures of the
    union of T^-j of it, j < n.  Neither the cycle strands nor the search
    over them image anything."""
    Tm = as_prefix_map(T)
    Tinv, sig = Tm.inverse(), Tm.sig
    measures = [ProductMeasure.uniform(sig), _skew(sig)]
    for sep in (n, 3 * n):
        powers = _power_table(Tm, sep)
        synchronous = [d for d in range(1, 8) if Tm.cycles(d) is not None]
        depths = [d for d in synchronous if _cycle_strands(Tm.cycles(d), sep, 0)][:2]
        for depth in depths:
            for castle_pass, pull in ((_shifted_top_castle, n), (_sliced_castle, 0)):
                images.clear()
                strands = _cycle_strands(Tm.cycles(depth), sep, pull)
                assert images == []
                assert all(len(el) == 1 for strand in strands for el in strand)
                castle = _pass_castle(sig, strands, castle_pass, n, measures)
                composed = _tower_strands(powers, Tinv, sep, depth, pull)
                assert castle == _pass_castle(sig, composed, castle_pass, n, measures)
                assert castle.towers == _first_return_towers(
                    Tm, Tinv, castle.base, 2 * sep
                )
                cover = orbit_of(Tinv, castle.base, n)
                assert castle.bound == [measure_of(mu, cover) for mu in measures]
    images.clear()
    for eps in (Fraction(1, 4), Fraction(1, 8)):
        rokhlin_castle(Tm, n, measures, eps)
    assert images == []


def test_rokhlin_castle_returns_the_castle_it_measured(monkeypatch):
    """Every strand list the search builds goes to the one pass that it was
    built for, at each depth where a pass runs; first-return towers are
    found only for tower strands, once per strand list, so never again over
    the base that the search accepts.  Odometers take the cycle strands and
    the map conjugated by DISS the tower strands, at every depth."""
    made, cut, towers = [], [], []

    def spy(fn, log, keep):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append(keep(out, args))
            return out

        return wrapped

    for fn in (_cycle_strands, _tower_strands):
        built = spy(fn, made, lambda out, args, fn=fn: (fn, out))
        monkeypatch.setattr(synth, fn.__name__, built)
    monkeypatch.setattr(
        synth, "_first_return_towers", spy(_first_return_towers, towers, lambda o, a: o)
    )
    for fn in (_shifted_top_castle, _sliced_castle):
        passed = spy(fn, cut, lambda out, args, fn=fn: (fn, args[0]))
        monkeypatch.setattr(synth, fn.__name__, passed)
    skew = ProductMeasure.make(SIG, [], [(Fraction(1, 3), Fraction(2, 3))])
    T = DISS.after(as_prefix_map(OD)).after(DISS.inverse())
    for M in (OD, Odometer(SIG, 3), T):
        for log in (made, cut, towers):
            log.clear()
        for n in (2, 3, 4):
            for eps in (Fraction(1, 4), Fraction(1, 8)):
                rokhlin_castle(M, n, [UNI, skew], eps)
        assert {fn for fn, _ in made} == {_tower_strands if M is T else _cycle_strands}
        built = [strands for _, strands in made if strands is not None]
        assert len(built) == len(cut)
        assert all(strands is s for strands, (_, s) in zip(built, cut))
        assert {fn for fn, _ in cut} == {_shifted_top_castle, _sliced_castle}
        assert len(towers) == (len(built) if M is T else 0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 8)])
def test_rokhlin_castle_composes_each_power_once(n, eps, compositions):
    """The search composes T^2 .. T^(sep-1) and T^-2 .. T^-(sep-1) at most
    once each, each from the one before, however many depths and passes ask
    for them: with the n compositions of the period refusal, at most
    n + 2(sep - 2).  An odometer castle reads its strands off cycles and
    composes only the n maps of the period refusal."""
    skew = ProductMeasure.make(SIG, [], [(Fraction(1, 3), Fraction(2, 3))])
    T = DISS.after(as_prefix_map(OD)).after(DISS.inverse())
    for measures in ([UNI], [UNI, skew]):
        sep = max(2, int(len(measures) / eps) + 1) * n
        compositions.clear()
        rokhlin_castle(T, n, measures, eps)
        assert len(compositions) <= n + 2 * (sep - 2)
        compositions.clear()
        rokhlin_castle(OD, n, measures, eps)
        assert len(compositions) == n


@pytest.mark.parametrize("sig", SIGS[:2])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_rokhlin_castle_inverts_once(sig, n, inversions):
    for eps in (Fraction(1, 4), Fraction(1, 8)):
        inversions.clear()
        rokhlin_castle(Odometer(sig, 1), n, [ProductMeasure.uniform(sig)], eps)
        assert len(inversions) <= 1


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 8)])
def test_rokhlin_castle_invariants(n, eps):
    castle = rokhlin_castle(OD, n, [UNI], eps)
    assert is_partition(castle.all_levels())
    assert all(h >= n for _, h, _ in castle.towers)
    assert all(b > 1 - eps for b in castle.bound)
    # recompute the bound independently
    Tm = as_prefix_map(OD)
    covered = Clopen.empty(SIG)
    for j in range(n):
        covered = covered | Tm.power(-j).image(castle.base)
    assert [measure_of(UNI, covered)] == castle.bound
    # levels really are T-iterates of the tower base
    for base, h, levels in castle.towers:
        assert levels[0] == base
        for j in range(1, h):
            assert levels[j] == Tm.power(j).image(base)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 8)])
def test_rokhlin_castle_of_a_map_that_is_not_synchronous(n, eps):
    """The odometer conjugated by the uneven tree pair DISS sends some
    cylinder of every depth onto a set that is not one cylinder of that
    depth, so the search composes powers.  The castle is checked through
    DISS^-1, the odometer and DISS one at a time, never through T."""
    pinv = PrefixMap.tree_pair(SIG, [((0, 0), (0,)), ((0, 1), (1, 0)), ((1,), (1, 1))])
    fwd, back = as_prefix_map(OD), as_prefix_map(Odometer(SIG, -1))
    T = DISS.after(fwd).after(DISS.inverse())
    assert all(T.cycles(d) is None for d in range(1, 13))
    castle = rokhlin_castle(T, n, [UNI], eps)

    def image(A, od=fwd):
        return DISS.image(od.image(pinv.image(A)))

    levels = castle.all_levels()
    depth = max(len(w) for lvl in levels for w in lvl.words)
    masks = [mask(lvl, depth) for lvl in levels]
    assert sum(map(len, masks)) == len(frozenset().union(*masks)) == 2**depth
    tops = Clopen.empty(SIG)
    for base, h, tower in castle.towers:
        assert h >= n and len(tower) == h and tower[0] == base
        for a, b in zip(tower, tower[1:]):
            assert image(a) == b
        tops = tops | tower[-1]
    assert image(tops) == castle.base
    covered = Clopen.empty(SIG)
    cur = castle.base
    for _ in range(n):
        covered = covered | cur
        cur = image(cur, back)
    assert castle.bound == [measure_of(UNI, covered)]
    assert castle.bound[0] > 1 - eps


# sha256 of the castles below as first recorded; a change in any tower,
# level, base, bound or refusal message changes it
CASTLE_SHA256 = "bf4c4b067c1c46630eee548e11aba9e106089f916e139d85d2bfb8b4148b8324"


def test_castle_digest():
    """The criterion-04 grid, the (2,3) odometer, random_homeo maps over
    every test signature with product and atom-mixture measures, and the
    odometer conjugated by DISS, which is not synchronous."""
    skew = ProductMeasure.make(SIG, [], [(Fraction(1, 3), Fraction(2, 3))])
    mix = Mixture.make(SIG, [(Fraction(1, 2), UNI), (Fraction(1, 2), skew)])
    epsilons = (Fraction(1, 4), Fraction(1, 8))
    cases = [
        (Odometer(SIG, k), n, measures, eps)
        for k in (1, 3)
        for n in (2, 3, 4)
        for eps in epsilons
        for measures in ([UNI], [UNI, mix])
    ]
    six = Signature((), (2, 3))
    cases += [
        (Odometer(six, 1), n, [ProductMeasure.uniform(six)], eps)
        for n in (2, 3, 4)
        for eps in epsilons
    ]
    rng = random.Random(2718)
    for i in range(150):
        sig = SIGS[i % 3]
        T = random_homeo(rng, sig)
        kinds = rng.sample(["uniform", "skew", "atom"], rng.randint(1, 2))
        measures = [_castle_measure(kind, sig, rng) for kind in kinds]
        eps = rng.choice([Fraction(1, 2), *epsilons])
        cases.append((T, rng.randint(2, 4), measures, eps))
    T = DISS.after(as_prefix_map(OD)).after(DISS.inverse())
    cases += [(T, n, [UNI], eps) for n in (2, 3, 4) for eps in epsilons]
    h = hashlib.sha256()
    for T, n, measures, eps in cases:
        try:
            c = rokhlin_castle(T, n, measures, eps)
            out = (c.towers, c.base, c.bound)
        except (ValueError, RuntimeError) as exc:
            out = str(exc)
        h.update(repr(out).encode() + b"\n")
    assert h.hexdigest() == CASTLE_SHA256


@pytest.mark.parametrize("n", [0, -1])
def test_rokhlin_castle_refuses_nonpositive_height(n, compositions, inversions):
    with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
        rokhlin_castle(OD, n, [UNI], Fraction(1, 4))
    assert compositions == [] and inversions == []


def test_rokhlin_castle_refuses_a_measure_over_another_signature():
    six = ProductMeasure.uniform(Signature((), (2, 3)))
    with pytest.raises(ValueError, match="signature mismatch"):
        rokhlin_castle(OD, 2, [UNI, six], Fraction(1, 4))


def test_rokhlin_castle_mixture_measure():
    mix = Mixture.make(
        SIG,
        [
            (Fraction(1, 2), UNI),
            (Fraction(1, 2), ProductMeasure.make(
                SIG, [], [(Fraction(1, 3), Fraction(2, 3))]
            )),
        ],
    )
    castle = rokhlin_castle(OD, 3, [UNI, mix], Fraction(1, 4))
    assert all(b > Fraction(3, 4) for b in castle.bound)


def test_rokhlin_rejects_periodic_maps():
    with pytest.raises(ValueError):
        rokhlin_castle(SWAP, 2, [UNI], Fraction(1, 4))


def test_rank1_of_odometer_is_exact():
    res = rank1_in_uniform_neighborhood(OD, [UNI], Fraction(1, 2))
    assert res.ok
    assert res.certificate["measures_of_difference"] == [0]
    assert res.homeo == as_prefix_map(OD)


def test_rank1_certificate_reverified():
    T, _ = aperiodize_periodic(SWAP, 1)
    res = rank1_in_uniform_neighborhood(T, [UNI], Fraction(1, 2))
    assert res.ok
    E = difference_set(res.homeo, T)
    vals = [open_diff_mass(UNI, E)]
    assert vals == res.certificate["measures_of_difference"]
    assert all(v < Fraction(1, 2) for v in vals)
    # single cycle: the tower levels partition the space
    assert is_partition(list(res.tower.levels[0]))


# the tree pair 000 -> 001 -> 010 -> 0110 -> 0111 -> 000 cycles [0] with
# period 5, and the dyadic odometer runs on [1]
PERIOD_5 = PrefixMap.make(
    SIG,
    [
        ((0, 0, 0), (0, 0, 1), 0),
        ((0, 0, 1), (0, 1, 0), 0),
        ((0, 1, 0), (0, 1, 1, 0), 0),
        ((0, 1, 1, 0), (0, 1, 1, 1), 0),
        ((0, 1, 1, 1), (0, 0, 0), 0),
        ((1,), (1,), 1),
    ],
)


def test_rank1_refuses_periods_up_to_eight_before_doubling(monkeypatch):
    heights = []

    def castle_spy(Tm, n, measures, epsilon):
        heights.append(n)
        return rokhlin_castle(Tm, n, measures, epsilon)

    monkeypatch.setattr(synth, "rokhlin_castle", castle_spy)
    refusal = r"periodic points of period 5 found: Clopen\{0\}"
    with pytest.raises(ValueError, match=refusal):
        rank1_in_uniform_neighborhood(PERIOD_5, [UNI], Fraction(1, 2))
    assert heights == []
    # a castle of height 2 refuses only periods up to 2
    castle = rokhlin_castle(PERIOD_5, 2, [UNI], Fraction(1, 4))
    assert all(h >= 2 for _, h, _ in castle.towers)


# PERIOD_5 on [0], and on [1] the uneven tree pair {0->00, 10->01, 11->1}
# moved there, whose isolated fixed points are 1(0) and (1)
FIXED_AND_PERIOD_5 = PrefixMap.make(
    SIG,
    [br for br in PERIOD_5.branches if br[0][0] == 0]
    + [((1, 0), (1, 0, 0), 0), ((1, 1, 0), (1, 0, 1), 0), ((1, 1, 1), (1, 1), 0)],
)


def test_periodic_refusal_stops_at_the_least_period(compositions):
    """The refusal names the least period, a point before a clopen part of a
    larger period, and composes no power of T beyond it."""
    refusal = r"periodic point of period 1 found: Point\[\(1\)\]"
    with pytest.raises(ValueError, match=refusal):
        rokhlin_castle(FIXED_AND_PERIOD_5, 1000, [UNI], Fraction(1, 2))
    assert len(compositions) == 1


def test_rank1_doubles_the_height_and_glues_the_tops(monkeypatch):
    T = PrefixMap.make(
        SIG,
        [
            ((0, 0, 0), (0, 0, 1), 0),
            ((0, 0, 1), (1, 1, 1), 0),
            ((0, 1, 0), (0, 1, 1), 0),
            ((0, 1, 1), (0, 0, 0), 1),
            ((1, 0, 0), (1, 1, 0), 0),
            ((1, 0, 1), (0, 1, 0), 0),
            ((1, 1, 0), (1, 0, 1), 0),
            ((1, 1, 1), (1, 0, 0), 0),
        ],
    )
    dirac = Dirac(SIG, Point.make(SIG, (), (0,)))
    castles, glued = [], []

    def castle_spy(Tm, n, measures, epsilon):
        castle = rokhlin_castle(Tm, n, measures, epsilon)
        castles.append((n, [h for _, h, _ in castle.towers]))
        return castle

    def glue_spy(A, B):
        glued.append((A, B))
        return canonical_clopen_homeo(A, B)

    monkeypatch.setattr(synth, "rokhlin_castle", castle_spy)
    monkeypatch.setattr(synth, "canonical_clopen_homeo", glue_spy)
    res = rank1_in_uniform_neighborhood(T, [dirac], Fraction(1, 2))
    # two towers at n = 2, whose tops are glued onto the next base, miss;
    # the doubled height gives one tower
    assert castles == [(2, [2, 3]), (4, [4])]
    assert res.certificate["castle_heights"] == [4]
    assert glued
    assert res.certificate["measures_of_difference"] == [0]
    E = difference_set(res.homeo, T)
    assert open_diff_mass(dirac, E) == 0


def test_truncation_order_and_distance():
    for t in (1, 2, 3, 4):
        Q = truncation(SIG, t)
        assert as_prefix_map(power(Q, SIG.num_words(t))).is_identity()
        assert weak_distance(Q, OD) == Fraction(2, 2**t)


def test_periodic_approx_weak():
    res = periodic_approx_odometer(OD, "weak", epsilon=Fraction(1, 2))
    assert res.ok
    assert res.certificate["weak_distance"] < Fraction(1, 2)
    assert as_prefix_map(power(res.Q, res.certificate["power_identity"])).is_identity()


def test_periodic_approx_uniform():
    res = periodic_approx_odometer(
        OD, "uniform", epsilon=Fraction(1, 8), measures=[UNI]
    )
    assert res.ok
    assert all(v < Fraction(1, 8) for v in res.certificate["measures_of_difference"])


def test_periodic_approx_uniform_dirac_obstruction():
    # a point mass on the carry path obstructs every depth up to the cap
    ones = Dirac(SIG, Point.make(SIG, (), (1,)))
    t0 = time.monotonic()
    res = periodic_approx_odometer(
        OD, "uniform", epsilon=Fraction(1, 8), measures=[ones]
    )
    assert time.monotonic() - t0 < 5
    assert not res.ok
    assert res.depth == synth.APPROX_DEPTH_CAP
    assert res.obstruction == ones.atom
    assert ones.atom.in_clopen(res.certificate["difference_core"])


def test_periodic_approx_weak_at_a_small_epsilon():
    t0 = time.monotonic()
    res = periodic_approx_odometer(OD, "weak", epsilon=Fraction(1, 2**30))
    assert time.monotonic() - t0 < 5
    assert res.ok and res.depth == 32
    assert res.certificate["weak_distance"] == Fraction(2, 2**32)


def test_periodic_approx_targets_the_maps_with_a_shift():
    """An odometer is any map equal to x |-> x + k, k != 0, however it was
    built; the identity, Odometer(sig, 0), is none."""
    one_branch = PrefixMap.make(SIG, [((), (), 1)])
    assert periodic_approx_odometer(one_branch, "weak", Fraction(1, 4)) == (
        periodic_approx_odometer(OD, "weak", Fraction(1, 4))
    )
    for S in (PrefixMap.identity(SIG), Odometer(SIG, 0), SWAP):
        with pytest.raises(TypeError, match="targets an odometer"):
            periodic_approx_odometer(S, "weak", Fraction(1, 4))


@pytest.mark.parametrize("mode", ["weak", "uniform"])
@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(-1, 2)])
def test_periodic_approx_refuses_a_nonpositive_epsilon(mode, epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        periodic_approx_odometer(OD, mode, epsilon, measures=[UNI])


def _enumerated_truncation(sig, t, k):
    """The depth-t truncation from all depth-t words; the reference."""
    n = sig.num_words(t)
    return PrefixMap.tree_pair(
        sig,
        [(sig.word_of_index(i, t), sig.word_of_index(i + k, t)) for i in range(n)],
    )


@pytest.mark.parametrize("sig", SIGS + [Signature((2, 4), (3, 2))])
def test_truncation_matches_the_enumeration(sig):
    for t in range(1, 6):
        for k in range(-5, 8):
            assert truncation(sig, t, k) == _enumerated_truncation(sig, t, k)
