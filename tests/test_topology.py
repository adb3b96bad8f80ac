import random
import time
from fractions import Fraction

import pytest

from cantordyn.space import DYADIC, Clopen, Signature, partition_at_depth
from cantordyn.measure import ProductMeasure, measure_of
from cantordyn.homeo import (
    Odometer,
    PrefixMap,
    TowerSystem,
    as_prefix_map,
    compose,
    weak_distance,
)
from cantordyn.topology import (
    BarPNeighborhood,
    IndeterminateAtDepth,
    PNeighborhood,
    UniformNeighborhood,
    WeakBall,
    defect_over_partition,
    in_neighborhood,
    limsup_check,
    partition_gap,
    weak_distance_interval,
)
from cantordyn.synth import truncation
from cantordyn.gen import random_clopen, random_homeo, random_measure, random_partition

from conftest import SIGS

SIG = DYADIC
SWAP = PrefixMap.tree_pair(SIG, [((0,), (1,)), ((1,), (0,))])
IDENT = PrefixMap.identity(SIG)
UNI = ProductMeasure.uniform(SIG)


def test_weak_ball_membership():
    m = in_neighborhood(SWAP, WeakBall(IDENT, Fraction(5, 2)))
    assert m.ok
    m = in_neighborhood(SWAP, WeakBall(IDENT, Fraction(1, 2)))
    assert not m.ok
    # the certificate carries the exact distance as a degenerate interval
    lo, hi = m.certificate["weak_distance"]
    assert lo == hi == 2


def test_p_membership_is_set_agreement():
    n = PNeighborhood(Odometer(SIG, 1), (Clopen.cylinder(SIG, (0,)),))
    Q = truncation(SIG, 3)
    assert in_neighborhood(Q, n).ok
    # swap happens to match the odometer on [0] but not on [10]
    assert in_neighborhood(SWAP, n).ok
    n2 = PNeighborhood(Odometer(SIG, 1), (Clopen.cylinder(SIG, (1, 0)),))
    assert not in_neighborhood(SWAP, n2).ok


def test_uniform_membership_uses_difference_mass():
    n = UniformNeighborhood(IDENT, (UNI,), Fraction(1, 3))
    deep_swap = PrefixMap.tree_pair(
        SIG,
        [((0, 0, 0), (0, 0, 1)), ((0, 0, 1), (0, 0, 0)), ((0, 1), (0, 1)), ((1,), (1,))],
    )
    m = in_neighborhood(deep_swap, n)
    assert m.ok
    assert m.certificate["measures_of_difference"] == [Fraction(1, 4)]
    # the comparison is strict: mass 1/4 is not inside epsilon = 1/4
    tight = UniformNeighborhood(IDENT, (UNI,), Fraction(1, 4))
    assert not in_neighborhood(deep_swap, tight).ok
    assert not in_neighborhood(SWAP, n).ok


def test_barp_membership():
    F = Clopen.cylinder(SIG, (0,))
    n = BarPNeighborhood(IDENT, (F,), (UNI,), Fraction(1, 2))
    assert not in_neighborhood(SWAP, n).ok
    assert in_neighborhood(IDENT, n).ok


def test_tower_interval_inverts_once(inversions):
    t = TowerSystem.from_cycle(
        [Clopen.cylinder(SIG, (0,)), Clopen.cylinder(SIG, (1,))]
    )
    t = t.ensure_levels(4)
    assert len(t.levels[-1]) == 16
    for other in (SWAP, Odometer(SIG, 1)):
        inversions.clear()
        weak_distance_interval(t, other)
        assert len(inversions) <= 1


def test_weak_interval_and_indeterminate():
    t = TowerSystem.from_cycle(
        [Clopen.cylinder(SIG, (0,)), Clopen.cylinder(SIG, (1,))]
    )
    t = t.ensure_levels(3)
    od = Odometer(SIG, 1)
    lo, hi = weak_distance_interval(t, od)
    assert lo == 0 and hi == Fraction(1, 4)
    assert in_neighborhood(t, WeakBall(od, Fraction(1, 2))).ok
    with pytest.raises(IndeterminateAtDepth):
        in_neighborhood(t, WeakBall(od, Fraction(1, 8)))
    # refining the tower shrinks the interval and resolves the query
    t = t.ensure_levels(5)
    assert in_neighborhood(t, WeakBall(od, Fraction(1, 8))).ok


def test_membership_refuses_a_map_over_another_signature():
    T3 = Odometer(Signature((), (3,)), 1)
    with pytest.raises(ValueError, match="signature mismatch"):
        in_neighborhood(T3, WeakBall(Odometer(SIG, 1), Fraction(1)))


def test_defect_over_partition():
    atoms = partition_at_depth(SIG, 2)
    v = defect_over_partition("tau_prime", SWAP, IDENT, UNI, atoms)
    assert v == 1
    assert defect_over_partition("tau_prime", IDENT, IDENT, UNI, atoms) == 0
    # bar-tau ignores mass-preserving rearrangement
    assert defect_over_partition("bar_tau", SWAP, IDENT, UNI, atoms) == 0
    od = Odometer(SIG, 1)
    assert defect_over_partition("bar_tau", od, IDENT, UNI, atoms) == 0


def _unions(atoms):
    """Every union of the atoms, each built with Clopen.make."""
    for mask in range(1 << len(atoms)):
        words = [w for k, a in enumerate(atoms) if mask >> k & 1 for w in a.words]
        yield Clopen.make(atoms[0].sig, words)


def test_bar_tau_defect_is_the_exhaustive_maximum():
    """The bar-tau sum rule against the max over every union of atoms."""
    rng = random.Random(31)
    for i in range(60):
        sig = SIGS[i % 3]
        S, T = random_homeo(rng, sig), random_homeo(rng, sig)
        atoms = random_partition(rng, sig, max_atoms=6)
        mu = random_measure(rng, sig)
        best = max(
            abs(measure_of(mu, T.image(F)) - measure_of(mu, S.image(F)))
            for F in _unions(atoms)
        )
        assert defect_over_partition("bar_tau", S, T, mu, atoms) == best


def test_tau_prime_defect_is_the_exhaustive_maximum():
    """The cut over the cell masses against mu(TF ^ SF) over every union."""
    rng = random.Random(37)
    for i in range(60):
        sig = SIGS[i % 3]
        S, T = random_homeo(rng, sig), random_homeo(rng, sig)
        atoms = random_partition(rng, sig, max_atoms=6)
        mu = random_measure(rng, sig)
        best = max(measure_of(mu, T.image(F) ^ S.image(F)) for F in _unions(atoms))
        assert defect_over_partition("tau_prime", S, T, mu, atoms) == best


def test_tau_prime_defect_over_16_atoms_is_the_sum_of_its_blocks(monkeypatch):
    """S and T map each depth-2 cylinder onto itself, so no cell joins two of
    the four blocks of depth-4 atoms, and the largest cut is the sum of the
    blocks' largest ones.  The defect builds no union of atom images
    (Clopen.__or__), which is what kept 16 atoms past the time budget."""
    rng = random.Random(41)

    def blockwise():
        return PrefixMap.make(SIG, [
            (p + u, p + v, c)
            for p in SIG.words(2)
            for u, v, c in random_homeo(rng, SIG, depth=2).branches
        ])

    S, T = blockwise(), blockwise()
    mu = ProductMeasure.make(SIG, [], [(Fraction(1, 3), Fraction(2, 3))])
    atoms = partition_at_depth(SIG, 4)
    blocks = [atoms[k : k + 4] for k in range(0, 16, 4)]
    expected = sum(
        max(measure_of(mu, T.image(F) ^ S.image(F)) for F in _unions(block))
        for block in blocks
    )
    unions = []
    union = Clopen.__or__
    monkeypatch.setattr(Clopen, "__or__", lambda A, B: unions.append(B) or union(A, B))
    start = time.perf_counter()
    assert defect_over_partition("tau_prime", S, T, mu, atoms) == expected
    assert time.perf_counter() - start < 2
    assert unions == []


def test_bar_tau_defect_beyond_the_exhaustive_limit():
    # 32 atoms: S halves the mass of each atom in [0] and doubles it in [11]
    atoms = partition_at_depth(SIG, 5)
    S = PrefixMap.tree_pair(SIG, [((0,), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (1,))])
    assert defect_over_partition("bar_tau", S, IDENT, UNI, atoms) == Fraction(1, 4)


def test_defect_refuses_sets_that_do_not_partition():
    for sets in ([Clopen.make(SIG, [(0,)])] * 2, [Clopen.make(SIG, [(0,)])]):
        for kind in ("tau_prime", "bar_tau"):
            with pytest.raises(ValueError, match="do not partition"):
                defect_over_partition(kind, SWAP, IDENT, UNI, sets)


def test_defect_refuses_large_partitions_silently_greedy():
    atoms = partition_at_depth(SIG, 5)
    with pytest.raises(ValueError):
        defect_over_partition("tau_prime", SWAP, IDENT, UNI, atoms)


def test_partition_gap():
    assert partition_gap(partition_at_depth(SIG, 1)) == Fraction(1, 2)
    assert partition_gap(partition_at_depth(SIG, 3)) == Fraction(1, 8)


def test_gap_implies_set_agreement():
    # maps closer than the partition gap act identically on the atoms
    rng = random.Random(29)
    for _ in range(30):
        S = random_homeo(rng, SIG)
        deep = PrefixMap.tree_pair(
            SIG,
            [
                ((0, 0, 0, 0), (0, 0, 0, 1)),
                ((0, 0, 0, 1), (0, 0, 0, 0)),
                ((0, 0, 1), (0, 0, 1)),
                ((0, 1), (0, 1)),
                ((1,), (1,)),
            ],
        )
        T = compose(S, deep)
        atoms = partition_at_depth(SIG, 1)
        if weak_distance(S, T) < partition_gap(atoms):
            for F in atoms:
                assert S.image(F) == as_prefix_map(T).image(F)


def test_limsup_check():
    F = Clopen.cylinder(SIG, (0,))
    assert limsup_check([IDENT] * 4, F)
    assert limsup_check([SWAP, IDENT, IDENT, IDENT], F)
    assert not limsup_check([SWAP] * 4, F)
    with pytest.raises(ValueError):
        limsup_check([IDENT], F)


def test_limsup_check_is_the_last_image(images):
    """Against the union over m of the intersections of T_k F for k > m,
    with one image where that definition takes one per term."""
    rng = random.Random(43)
    hits = 0
    for i in range(200):
        sig = SIGS[i % 3]
        seq = [random_homeo(rng, sig) for _ in range(rng.randint(2, 5))]
        if i % 2:
            seq[-1] = PrefixMap.identity(sig)
        F = random_clopen(rng, sig)
        imgs = [T.image(F) for T in seq]
        union = Clopen.empty(sig)
        for m in range(len(seq) - 1):
            inter = Clopen.full(sig)
            for img in imgs[m + 1 :]:
                inter = inter & img
            union = union | inter
        images.clear()
        assert limsup_check(seq, F) == (union == F)
        assert len(images) == 1
        hits += union == F
    assert 100 < hits < 200
