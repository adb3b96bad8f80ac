import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import space
from cantordyn.space import (
    DYADIC,
    Clopen,
    Point,
    Signature,
    is_partition,
    point_distance,
    point_with_prefix,
)
from cantordyn import homeo
from cantordyn.homeo import (
    Odometer,
    PrefixMap,
    TowerSystem,
    as_prefix_map,
    centralizer_index_sequence,
    compose,
    compose_branches,
    difference_set,
    fixed_points,
    full_group_membership,
    inf_pointwise_distance,
    inverse,
    invert_branches,
    period_structure,
    point_add,
    power,
    refine_branch,
    refine_to,
    sup_pointwise_distance,
    weak_distance,
)
from cantordyn.synth import fundamental_domain, truncation
from cantordyn.gen import random_clopen, random_homeo, random_point

from conftest import SIGS, mask

SWAP = PrefixMap.tree_pair(DYADIC, [((0,), (1,)), ((1,), (0,))])
DISS = PrefixMap.tree_pair(
    DYADIC, [((0,), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (1,))]
)


def test_point_add_basic():
    sig = DYADIC
    x = Point.make(sig, (), (0,))
    y = point_add(x, 1)
    assert y == Point.make(sig, (1,), (0,))
    assert point_add(y, -1) == x
    ones = Point.make(sig, (), (1,))
    assert point_add(ones, 1) == Point.make(sig, (), (0,))


def test_point_add_mixed_radix():
    sig = Signature((), (2, 3))
    x = Point.make(sig, (), (0,))
    # 1 + 1 + ... cycles through all residues mod 6 on depth 2
    seen = set()
    y = x
    for _ in range(6):
        seen.add((y.digit(0), y.digit(1)))
        y = point_add(y, 1)
    assert len(seen) == 6
    # the depth-2 prefix returns after 6 steps; the carry moves deeper
    assert (y.digit(0), y.digit(1)) == (0, 0)


@pytest.mark.parametrize("sig", SIGS)
def test_group_laws(sig):
    rng = random.Random(13)
    e = PrefixMap.identity(sig)
    for _ in range(25):
        S = random_homeo(rng, sig)
        T = random_homeo(rng, sig)
        R = random_homeo(rng, sig)
        assert compose(S, e) == S == compose(e, S)
        assert compose(S, inverse(S)) == e
        assert compose(inverse(S), S) == e
        assert compose(compose(S, T), R) == compose(S, compose(T, R))
        assert inverse(compose(S, T)) == compose(inverse(T), inverse(S))
        assert power(S, 3) == compose(S, compose(S, S))
        assert power(S, -2) == inverse(compose(S, S))


@pytest.mark.parametrize("sig", SIGS)
def test_image_respects_set_algebra(sig):
    rng = random.Random(17)
    for _ in range(25):
        S = random_homeo(rng, sig)
        A = random_clopen(rng, sig)
        B = random_clopen(rng, sig)
        assert S.image(A | B) == S.image(A) | S.image(B)
        assert S.image(A & B) == S.image(A) & S.image(B)
        assert S.image(A.complement()) == S.image(A).complement()
        assert S.preimage(S.image(A)) == A
        assert inverse(S).image(A) == S.preimage(A)


def test_composition_matches_pointwise_tabulation():
    sig = DYADIC
    rng = random.Random(19)
    for _ in range(20):
        S = random_homeo(rng, sig)
        T = random_homeo(rng, sig)
        ST = compose(S, T)  # S after T
        for w in sig.words(3):
            A = Clopen.cylinder(sig, w)
            assert ST.image(A) == S.image(T.image(A))


@pytest.mark.parametrize("sig", SIGS)
def test_odometer_cycles_every_depth(sig):
    T = as_prefix_map(Odometer(sig, 1))
    for d in (1, 2, 3):
        n = sig.num_words(d)
        A = Clopen.cylinder(sig, sig.word_of_index(0, d))
        seen = []
        for _ in range(n):
            seen.append(A.words[0])
            A = T.image(A)
        assert len(set(seen)) == n
        assert A == Clopen.cylinder(sig, sig.word_of_index(0, d))


def test_weak_distance_known_values():
    sig = DYADIC
    ident = PrefixMap.identity(sig)
    assert weak_distance(ident, SWAP) == 2
    T = as_prefix_map(Odometer(sig, 1))
    for t in range(1, 5):
        assert weak_distance(T, truncation(sig, t)) == Fraction(2, 2**t)


def test_maps_refuse_operands_over_another_signature():
    T3 = as_prefix_map(Odometer(Signature((), (3,)), 1))
    od = Odometer(DYADIC, 1)
    calls = [
        lambda: T3.image(Clopen.make(DYADIC, [(1,)])),
        lambda: T3.apply(Point.make(DYADIC, (), (1,))),
        lambda: weak_distance(T3, od),
        lambda: difference_set(od, T3),
        lambda: full_group_membership(od, T3, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="signature mismatch"):
            call()


def test_difference_set_empty_iff_equal():
    sig = DYADIC
    rng = random.Random(23)
    for _ in range(15):
        S = random_homeo(rng, sig)
        E = difference_set(S, S)
        assert E.core.is_empty and not E.removed
        T = compose(S, SWAP)
        E2 = difference_set(S, T)
        assert not E2.core.is_empty


def test_difference_set_reads_the_inverse_side_off_one_image(inversions):
    """E(S, T) = E(S^-1, T^-1) by its definition.  difference_set takes the
    inverse side as the S-image of the forward side, with no inversion; half
    the dyadic pairs are conjugates of DISS, whose sets have removed points."""
    rng = random.Random(47)
    with_points = 0
    for i in range(60):
        sig = SIGS[i % 3]
        S, T = random_homeo(rng, sig), random_homeo(rng, sig)
        if sig == DYADIC and i % 2:
            S, T = DISS.after(S).after(DISS.inverse()), DISS.after(T)
        Si, Ti = S.inverse(), T.inverse()
        inversions.clear()
        E = difference_set(S, T)
        assert inversions == []
        assert E == difference_set(Si, Ti)
        with_points += bool(E.removed)
    assert with_points


def test_fixed_points():
    sig = DYADIC
    part, isolated = fixed_points(SWAP)
    assert part.is_empty and isolated == []
    part, isolated = fixed_points(PrefixMap.identity(sig))
    assert part == Clopen.full(sig)
    part, isolated = fixed_points(DISS)
    assert part.is_empty
    assert isolated == [
        Point.make(sig, (), (0,)),
        Point.make(sig, (), (1,)),
    ]


def test_period_structure():
    sig = DYADIC
    info = period_structure(SWAP, 4)
    assert info["exact_period_parts"][2] == Clopen.full(sig)
    assert not info["aperiodic_up_to_bound"]
    info = period_structure(Odometer(sig, 1), 6)
    assert info["aperiodic_up_to_bound"]
    assert all(p.is_empty for p in info["exact_period_parts"].values())
    Q = truncation(sig, 2)
    info = period_structure(Q, 4)
    assert info["exact_period_parts"][4] == Clopen.full(sig)


@pytest.mark.parametrize("bound", [0, -1])
def test_period_structure_refuses_nonpositive_bound(bound):
    with pytest.raises(ValueError, match=f"bound must be positive, got {bound}"):
        period_structure(SWAP, bound)


def test_full_group_membership():
    sig = DYADIC
    T = Odometer(sig, 1)
    pieces, missing = full_group_membership(SWAP, T, 2)
    assert missing is None
    assert pieces == {
        1: Clopen.cylinder(sig, (0,)),
        -1: Clopen.cylinder(sig, (1,)),
    }
    # the exponent partition reassembles the map
    for i, E in pieces.items():
        Ti = as_prefix_map(power(T, i))
        assert SWAP.image(E) == Ti.image(E)
    pieces, missing = full_group_membership(DISS, T, 3)
    assert pieces is None and not missing.is_empty
    # bound 0 searches T^0 alone; a negative bound is refused, not searched
    assert full_group_membership(T, T, 0) == (None, Clopen.full(sig))
    assert full_group_membership(SWAP.power(2), T, 0) == ({0: Clopen.full(sig)}, None)
    with pytest.raises(ValueError, match="bound must not be negative, got -1"):
        full_group_membership(SWAP, T, -1)


def test_full_group_membership_steps_each_power_once(compositions):
    """T^i is one composition from T^(i-1), and T^-i one from T^-(i-1), so a
    bound costs at most 2 * bound compositions; building each T^i by square
    and multiply took 10,776 compositions at bound 512 with S = T^300."""
    for k, bound, want in (
        (300, 64, (None, Clopen.full(DYADIC))),
        (-3, 8, ({-3: Clopen.full(DYADIC)}, None)),
        (0, 4, ({0: Clopen.full(DYADIC)}, None)),
    ):
        S = DISS.power(k)
        compositions.clear()
        assert full_group_membership(S, DISS, bound) == want
        assert len(compositions) <= 2 * bound


def test_odometer_is_a_prefix_map():
    """Odometer(sig, k) is the one branch (e, e, k), the map that adding k
    is however it was built; its shift is k, and None for every other map."""
    for sig in SIGS:
        od = Odometer(sig, 1)
        assert od == PrefixMap.make(sig, [((), (), 1)]) and weak_distance(od, od) == 0
        # x + 1 as two branches on the depth-1 cylinders merges to one
        lam = sig.level(0)
        branches = [((d,), (d + 1,), 0) for d in range(lam - 1)]
        assert PrefixMap.make(sig, branches + [((lam - 1,), (0,), 1)]) == od
        for k in (-2, -1, 1, 3):
            assert Odometer(sig, k).shift == k
            assert compose(Odometer(sig, k), od) == Odometer(sig, k + 1)
            assert inverse(Odometer(sig, k)) == Odometer(sig, -k)
            assert power(Odometer(sig, k), 3) == Odometer(sig, 3 * k)
        assert Odometer(sig, 0) == PrefixMap.identity(sig) == compose(od, inverse(od))
        assert Odometer(sig, 0).shift is None
    assert SWAP.shift is None and DISS.shift is None
    assert PrefixMap.make(DYADIC, [((0,), (1,), 0), ((1,), (0,), 2)]).shift is None


def test_centralizer_index_sequences():
    sig = DYADIC
    S = Odometer(sig, 1)
    for k in range(-3, 6):
        R = as_prefix_map(power(S, k))
        res = centralizer_index_sequence(R, S, 4)
        assert res["ok"]
        for i, p in zip(res["indices"], res["moduli"]):
            assert (i - k) % p == 0
    res = centralizer_index_sequence(SWAP, S, 4)
    assert not res["ok"] and res["failure_level"] <= 2
    with pytest.raises(ValueError, match="depth must not be negative"):
        centralizer_index_sequence(S, S, -1)
    # the identity is no odometer: refused by name, not by a failed product
    ident = PrefixMap.identity(sig)
    for R, T in ((ident, ident), (S, SWAP)):
        with pytest.raises(TypeError, match="needs an odometer as second argument"):
            centralizer_index_sequence(R, T, 3)


def test_centralizer_refines_only_up_to_the_failing_level(monkeypatch):
    """The swap acts as the odometer on the depth-1 cylinders but on the
    depth-2 ones as no power of it, so the test fails at level 1 having
    refined R to depth 1 and then to depth 2 (2 + 4 restrictions), however
    deep it was asked to look; refining to depth 16 first took 65,536."""
    calls = []
    refine = homeo.refine_branch

    def counted(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(homeo, "refine_branch", counted)
    res = centralizer_index_sequence(SWAP, Odometer(DYADIC, 1), 15)
    assert res == {"ok": False, "failure_level": 1, "indices": (1,), "moduli": (2,)}
    assert len(calls) == 2 + 4


def test_centralizer_matches_commutation():
    sig = DYADIC
    S = Odometer(sig, 1)
    R = as_prefix_map(power(S, 3))
    assert compose(R, S) == compose(S, R)
    assert centralizer_index_sequence(R, S, 3)["indices"][0] == 1


def test_tower_system_refinement():
    sig = DYADIC
    cycle = [Clopen.cylinder(sig, (0,)), Clopen.cylinder(sig, (1,))]
    t0 = TowerSystem.from_cycle(cycle)
    t = t0.ensure_levels(3)
    # refining builds a new system and leaves the first as it was
    assert t0 == TowerSystem.from_cycle(cycle) and t0.heights() == [2]
    assert t.heights() == [2, 4, 8] and hash(t) == hash(t.ensure_levels(2))
    for level in t.levels:
        assert is_partition(list(level))
    # the tower agrees with the odometer on every materialized level
    T = as_prefix_map(Odometer(sig, 1))
    for level in t.levels:
        for i, A in enumerate(level[:-1]):
            assert T.image(A) == level[i + 1]
    assert t.tail_bound() == Fraction(1, 4)


@pytest.mark.parametrize("sig", SIGS)
def test_power_square_and_multiply(sig, compositions):
    """power(k) equals the k-fold product and composes fewer than
    2 * bit_length(|k|) times."""
    rng = random.Random(29)
    for _ in range(3):
        S = random_homeo(rng, sig)
        products = {1: S, -1: S.inverse()}
        for k in range(2, 65):
            products[k] = S.after(products[k - 1])
            products[-k] = products[-1].after(products[-(k - 1)])
        for k, expected in products.items():
            compositions.clear()
            assert S.power(k) == expected
            assert len(compositions) <= 2 * abs(k).bit_length()


# -- algebra laws over random maps -------------------------------------------

maps = st.tuples(st.sampled_from(SIGS), st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(maps, st.integers(-6, 6), st.integers(-6, 6))
def test_power_is_additive(drawn, m, n):
    sig, rng = drawn
    S = random_homeo(rng, sig)
    assert S.power(m + n) == S.power(m).after(S.power(n))


@settings(max_examples=100, deadline=None)
@given(maps)
def test_inverse_is_two_sided(drawn):
    sig, rng = drawn
    S = random_homeo(rng, sig)
    assert S.after(S.inverse()).is_identity()
    assert S.inverse().after(S).is_identity()
    assert S.inverse().inverse() == S


@settings(max_examples=100, deadline=None)
@given(maps)
def test_image_of_union_against_mask_oracle(drawn):
    sig, rng = drawn
    S = random_homeo(rng, sig)
    A = random_clopen(rng, sig)
    B = random_clopen(rng, sig)
    union = S.image(A | B)
    assert union == S.image(A) | S.image(B)
    assert mask(union, 8) == mask(S.image(A), 8) | mask(S.image(B), 8)


@settings(max_examples=60, deadline=None)
@given(maps)
def test_composition_associative_and_image_preimage_inverse(drawn):
    sig, rng = drawn
    S, T, R = (random_homeo(rng, sig) for _ in range(3))
    assert S.after(T).after(R) == S.after(T.after(R))
    A = random_clopen(rng, sig)
    assert S.preimage(S.image(A)) == A == S.image(S.preimage(A))
    assert mask(S.after(T).image(A), 8) == mask(S.image(T.image(A)), 8)


@settings(max_examples=60, deadline=None)
@given(maps)
def test_weak_distance_is_a_metric(drawn):
    sig, rng = drawn
    S, T, R = (random_homeo(rng, sig) for _ in range(3))
    d = weak_distance(S, T)
    assert d == weak_distance(T, S)
    assert weak_distance(S, S) == 0
    assert (d == 0) == (S == T)
    assert weak_distance(S, R) <= d + weak_distance(T, R)


# -- canonical as built ---------------------------------------------------------


def _built_maps(rng, sig):
    """Outputs of make, after, inverse and power on random maps."""
    S, T = random_homeo(rng, sig), random_homeo(rng, sig)
    d = S.max_domain_depth() + 1
    return [
        PrefixMap.make(sig, S.table(d)),
        S.after(T),
        S.inverse(),
        S.power(rng.randint(2, 5)),
        S.power(-rng.randint(1, 5)),
    ]


@pytest.mark.parametrize("sig", SIGS)
def test_maps_are_canonical_as_built(sig):
    rng = random.Random(31)
    for _ in range(20):
        for m in _built_maps(rng, sig):
            assert m.canonical() == m


@pytest.mark.parametrize("sig", SIGS)
def test_table_walks_branches_in_word_order(sig):
    """table against a scan of every branch for every depth-d word."""
    rng = random.Random(41)
    for _ in range(10):
        for m in _built_maps(rng, sig):
            top = m.max_domain_depth()
            for d in range(top, top + 2):
                want = []
                for w in sig.words(d):
                    (br,) = [b for b in m.branches if w[: len(b[0])] == b[0]]
                    want.append(refine_branch(sig, br, w))
                assert m.table(d) == want


@pytest.mark.parametrize("sig", SIGS)
def test_canonical_merges_refined_tables(sig):
    """Refined tables collapse back in one pass, cascading through levels."""
    rng = random.Random(37)
    for _ in range(20):
        for m in _built_maps(rng, sig):
            top = m.max_domain_depth()
            for d in range(top, top + 3):
                assert PrefixMap(sig, tuple(m.table(d))).canonical() == m


@pytest.mark.parametrize("sig", SIGS)
def test_equality_does_not_canonicalize(sig, monkeypatch):
    calls = []
    canonical = PrefixMap.canonical

    def counted(self):
        calls.append(None)
        return canonical(self)

    monkeypatch.setattr(PrefixMap, "canonical", counted)
    rng = random.Random(41)
    S, T = random_homeo(rng, sig), random_homeo(rng, sig)
    calls.clear()
    assert (S == T) == (S.branches == T.branches)
    hash(S)
    S.is_identity()
    assert calls == []
    S.after(T)
    assert len(calls) == 1
    S.inverse()
    assert len(calls) == 2


@pytest.mark.parametrize("sig", SIGS)
def test_compose_branches_on_partial_fragments(sig):
    """Each branch of a composed fragment maps its cylinder exactly where
    S o T does, and the fragment covers exactly the restricted domain."""
    rng = random.Random(43)
    for _ in range(25):
        S, T = random_homeo(rng, sig), random_homeo(rng, sig)
        A = random_clopen(rng, sig)
        first = refine_to(sig, T.branches, A.words)
        second = refine_to(sig, S.branches, T.image(A).words)
        composed = compose_branches(sig, second, first)
        depth = 1 + max((len(w) for br in composed for w in br[:2]), default=0)
        assert mask(Clopen.make(sig, [u for u, _, _ in composed]), depth) == mask(
            A, depth
        )
        for u, v, _ in composed:
            image = S.image(T.image(Clopen.cylinder(sig, u)))
            assert mask(image, depth) == mask(Clopen.cylinder(sig, v), depth)
        Tinv = T.inverse()
        for v, u, _ in invert_branches(first):
            assert Tinv.image(Clopen.cylinder(sig, v)) == Clopen.cylinder(sig, u)


# -- cylinder cycles ------------------------------------------------------------


def _mask_orbits(S, depth):
    """Orbits of the depth-d words under S, each followed through the word
    mask of the image of its cylinder; None when some image is not one
    depth-d cylinder."""
    sig = S.sig
    seen = set()
    out = []
    for w in sig.words(depth):
        if w in seen:
            continue
        cycle = []
        while w not in seen:
            seen.add(w)
            cycle.append(w)
            img = mask(S.image(Clopen.make(sig, [w])), depth)
            if len(img) != 1 or len(min(img)) != depth:
                return None
            (w,) = img
        assert w == cycle[0]
        out.append(cycle)
    return out


@settings(max_examples=100, deadline=None)
@given(maps, st.integers(0, 5))
def test_cycles_are_the_mask_orbits(drawn, depth):
    sig, rng = drawn
    S = random_homeo(rng, sig)
    if depth < S.max_domain_depth():
        assert S.cycles(depth) is None
    else:
        assert S.cycles(depth) == _mask_orbits(S, depth)


@pytest.mark.parametrize("sig", SIGS)
@pytest.mark.parametrize("k", [1, -1, 2, 3])
def test_odometer_cycles(sig, k):
    """The shift by k moves the word of index i to index i + k, so each
    depth-d cycle is a coset of the subgroup generated by k."""
    S = as_prefix_map(Odometer(sig, k))
    for depth in range(5):
        cycles = S.cycles(depth)
        assert cycles == _mask_orbits(S, depth)
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert sig.index(b) == (sig.index(a) + k) % sig.num_words(depth)


def test_cycles_of_a_map_that_changes_word_length():
    for depth in range(1, 7):
        assert DISS.cycles(depth) is None
        assert _mask_orbits(DISS, depth) is None


# -- the comparisons of two maps against points ----------------------------------


def _pinned_maps(rng, sig):
    """Two random maps; over DYADIC, often conjugated or multiplied by a
    dissipative tree pair, which is not synchronous and has isolated fixed
    points."""
    S, T = random_homeo(rng, sig), random_homeo(rng, sig)
    if sig == DYADIC:
        c = rng.randrange(4)
        if c == 1:
            S = DISS.after(S).after(DISS.inverse())
            T = DISS.after(T).after(DISS.inverse())
        elif c == 2:
            S, T = DISS.after(S), T.after(DISS)
        elif c == 3:
            S, T = DISS.after(S), S
    return S, T


def _point_in(rng, sig, w):
    """A random eventually periodic point of the cylinder of w."""
    return point_with_prefix(sig, w, random_point(rng, sig.shift(len(w))))


@settings(max_examples=120, deadline=None)
@given(maps)
def test_comparisons_against_the_point_oracle(drawn):
    """Difference sets, fixed points and the two pointwise distances agree
    with PrefixMap.apply on sampled points."""
    sig, rng = drawn
    S, T = _pinned_maps(rng, sig)
    Sinv, Tinv = S.inverse(), T.inverse()
    for x in difference_set(S, T).removed:
        assert S.apply(x) == T.apply(x) and Sinv.apply(x) == Tinv.apply(x)
    core, isolated = fixed_points(S)
    for x in isolated:
        assert S.apply(x) == x
    for w in core.words:
        x = _point_in(rng, sig, w)
        assert S.apply(x) == x
    lo, hi = inf_pointwise_distance(S, T), sup_pointwise_distance(S, T)
    assert lo <= hi
    for _ in range(8):
        x = random_point(rng, sig)
        assert lo <= point_distance(S.apply(x), T.apply(x)) <= hi
    core, isolated = fixed_points(Tinv.after(S))
    assert (lo == 0) == (not core.is_empty or bool(isolated))


def _divisor_rule(sig, powers, fix, bound):
    """period_structure from the fixed points fix[p] of each power, each
    exact part taken off the fixed points of the proper divisors only."""
    exact, iso = {}, {}
    for p in range(1, bound + 1):
        lower = Clopen.empty(sig)
        lower_pts = []
        for q in range(1, p):
            if p % q == 0:
                lower = lower | fix[q][0]
                lower_pts += fix[q][1]
        exact[p] = fix[p][0] - lower
        iso[p] = [
            x for x in fix[p][1] if not x.in_clopen(lower) and x not in lower_pts
        ]
    covered = Clopen.empty(sig)
    for part in exact.values():
        covered = covered | part
    return {
        "exact_period_parts": exact,
        "isolated_periodic_points": iso,
        "power_is_identity": {p: powers[p].is_identity() for p in exact},
        "residual": covered.complement(),
        "aperiodic_up_to_bound": covered.is_empty and not any(iso.values()),
    }


@pytest.mark.parametrize("sig", SIGS)
def test_period_structure_matches_the_divisor_rule(sig):
    rng = random.Random(47)
    for _ in range(6):
        S, _ = _pinned_maps(rng, sig)
        powers = {p: S.power(p) for p in range(1, 13)}
        fix = {p: fixed_points(P) for p, P in powers.items()}
        for bound in range(1, 13):
            expected = _divisor_rule(sig, powers, fix, bound)
            assert period_structure(S, bound) == expected


@pytest.mark.parametrize("sig", SIGS)
def test_full_group_pieces_reassemble_the_map(sig):
    rng = random.Random(53)
    accepted = 0
    for _ in range(12):
        S, T = _pinned_maps(rng, sig)
        for T, bound in ((T, 2), (Odometer(sig, 1), 3)):
            pieces, missing = full_group_membership(S, T, bound)
            if pieces is None:
                assert not missing.is_empty
                continue
            accepted += 1
            for i, E in pieces.items():
                Ti = as_prefix_map(power(T, i))
                for w in E.words:
                    for cycle in ((0,), (1,)):
                        x = Point.make(sig, w, cycle)
                        assert S.apply(x) == Ti.apply(x)
    assert accepted


# -- the comparisons of two maps, pinned -----------------------------------------

# sha256 of the reprs below as first recorded; a change in any value of the
# distances, difference sets, fixed points, periods, full-group pieces or
# fundamental domains of these maps changes it
COMPARISONS_SHA256 = "bd1ba21a9e381bc939fdb7d61590781a101369f74cd9fc66af3e7c119e860e5d"


def _sorted_repr(value):
    """repr with the items of every dict sorted, at any depth."""
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ", ".join(f"{k!r}: {_sorted_repr(v)}" for k, v in items) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_sorted_repr(v) for v in value) + ")"
    return repr(value)


def _order(S):
    """Order of a synchronous map of finite order (a permutation of the
    cylinders of its domain depth)."""
    return lcm(*map(len, S.cycles(S.max_domain_depth())))


def test_comparisons_are_pinned():
    h = hashlib.sha256()

    def put(value):
        h.update(_sorted_repr(value).encode())
        h.update(b"\n")

    for seed in range(30):
        rng = random.Random(seed)
        for sig in SIGS:
            S, T = _pinned_maps(rng, sig)
            put(sup_pointwise_distance(S, T))
            put(weak_distance(S, T))
            put(difference_set(S, T))
            put(fixed_points(S))
            put(fixed_points(T.inverse().after(S)))
            put(period_structure(S, 6))
            put(full_group_membership(S, T, 2))
            put(full_group_membership(S, Odometer(sig, 1), 3))
            P = random_homeo(rng, sig)
            if not P.is_tree_pair:
                P = truncation(sig, rng.randint(1, 3), rng.choice([1, -1, 3]))
            p = _order(P)
            if sig == DYADIC and seed % 2:
                P = DISS.after(P).after(DISS.inverse())
            for q in (p, 2 * p, max(1, p - 1)):
                try:
                    put(fundamental_domain(P, q))
                except ValueError as exc:
                    put(str(exc))
    assert h.hexdigest() == COMPARISONS_SHA256


def _table_refinement(S, T):
    """The common refinement at the deeper domain depth, from table."""
    depth = max(S.max_domain_depth(), T.max_domain_depth())
    return [
        (w, (v1, c1), (v2, c2))
        for (w, v1, c1), (_, v2, c2) in zip(S.table(depth), T.table(depth))
    ]


@pytest.mark.parametrize("sig", SIGS)
def test_cells_match_the_table_reference(sig, monkeypatch):
    """Each cell refines to the table rows of both maps below it, there are
    fewer cells than branches, and every comparison reads the same off the
    cells as off the depth-d table."""
    rng = random.Random(47)
    for _ in range(40):
        S, T = _pinned_maps(rng, sig)
        cells = homeo.common_refinement(S, T)
        assert len(cells) < len(S.branches) + len(T.branches)
        deep = _table_refinement(S, T)
        depth = len(deep[0][0])
        rows = iter(deep)
        for w, (v1, c1), (v2, c2) in cells:
            for x in sig.words(depth, w):
                _, b1, b2 = next(rows)
                assert refine_branch(sig, (w, v1, c1), x)[1:] == b1
                assert refine_branch(sig, (w, v2, c2), x)[1:] == b2
        assert next(rows, None) is None
        comparisons = [
            sup_pointwise_distance(S, T),
            inf_pointwise_distance(S, T),
            difference_set(S, T),
            fixed_points(T.inverse().after(S)),
            full_group_membership(S, T, 2),
        ]
        with monkeypatch.context() as m:
            m.setattr(homeo, "common_refinement", _table_refinement)
            assert comparisons == [
                sup_pointwise_distance(S, T),
                inf_pointwise_distance(S, T),
                difference_set(S, T),
                fixed_points(T.inverse().after(S)),
                full_group_membership(S, T, 2),
            ]


def test_common_refinement_costs_the_branches():
    # DISS^14 has 16 branches and domain depth 15: 2^15 table rows
    cells = homeo.common_refinement(DISS.power(14), PrefixMap.identity(DYADIC))
    assert len(cells) == 16


@pytest.mark.parametrize(
    "branches,reason",
    [
        # a duplicate domain word, a domain overlap and a range overlap
        ([((0,), (0,), 0), ((0,), (1,), 0), ((1,), (1,), 0)], "domain"),
        ([((0,), (0,), 0), ((0, 1), (1, 0), 0), ((1,), (1, 1), 0)], "domain"),
        ([((0,), (1,), 0), ((1, 0), (1, 0), 0), ((1, 1), (0,), 0)], "range"),
    ],
)
def test_make_refuses_overlapping_words(branches, reason):
    with pytest.raises(ValueError, match=f"{reason} words overlap"):
        PrefixMap.make(DYADIC, branches)


def test_make_refuses_out_of_range_digits():
    """The cover check refuses a word with a bad digit that stays on its own,
    but not one that lies under a merged family: 2 is no digit over DYADIC,
    yet {0, 1, 2} collapses to the whole space."""
    cases = [
        ([((0,), (0,), 0), ((1,), (2,), 0)], "range words do not cover"),
        ([((0,), (0, 0), 0), ((1,), (0, 1), 0), ((2,), (1,), 0)],
         "digits out of range"),
        ([((0,), (0,), 0), ((1, 0), (1, 0), 0), ((1, 1), (1, 1), 0),
          ((1, 2), (1, 2), 0)], "digits out of range"),
    ]
    for branches, reason in cases:
        with pytest.raises(ValueError, match=reason):
            PrefixMap.make(DYADIC, branches)


def test_tail_alphabets_compare_levels_not_spellings():
    """From depth 1 and from depth 2 the levels of base(3,2;2) are all 2,
    though shift() spells the two tails base(2;2) and base(;2)."""
    sig = Signature((3, 2), (2,))
    m = PrefixMap.make(sig, [((0,), (0, 0), 0), ((1,), (0, 1), 0),
                             ((2, 0), (1,), 0), ((2, 1), (2,), 0)])
    assert m.after(m.inverse()).is_identity() and m.inverse().after(m).is_identity()
    # the family 20, 21 merges into 2 -> 10, whose tails are those levels
    merged = PrefixMap.make(
        sig, [((0,), (0,), 0), ((1, 0), (2,), 0), ((1, 1), (1, 1), 0),
              ((2, 0), (1, 0, 0), 0), ((2, 1), (1, 0, 1), 0)]
    )
    assert ((2,), (1, 0), 0) in merged.branches
    # over base(;2,3) the levels from depth 1 are 3, 2, ... and from depth 2
    # they are 2, 3, ...
    sig = Signature((), (2, 3))
    with pytest.raises(ValueError, match="tail alphabets differ"):
        PrefixMap.make(sig, [((0,), (0, 0), 0), ((1, 0), (0, 1), 0),
                             ((1, 1), (0, 2), 0), ((1, 2), (1,), 0)])


# -- the restriction walk ----------------------------------------------------------


def _random_dyadic_tree_pair(rng, leaves):
    """A tree pair whose domain and range trees each grow to the given number
    of leaves by splitting leaves drawn at random."""
    trees = []
    for _ in range(2):
        words = [()]
        while len(words) < leaves:
            w = words.pop(rng.randrange(len(words)))
            words += [w + (0,), w + (1,)]
        trees.append(sorted(words))
    dom, rng_words = trees
    rng.shuffle(rng_words)
    return PrefixMap.tree_pair(DYADIC, list(zip(dom, rng_words)))


def _image_maps(rng):
    """Maps over each test signature: tree pairs with up to 128 branches,
    composed maps and conjugates of the dissipative DISS."""
    yield _random_dyadic_tree_pair(rng, rng.randint(1, 128))
    yield DISS.after(_random_dyadic_tree_pair(rng, rng.randint(1, 32)))
    for sig in SIGS:
        yield random_homeo(rng, sig, depth=rng.randint(1, 5))
        yield random_homeo(rng, sig).after(random_homeo(rng, sig))
    S = random_homeo(rng, DYADIC)
    yield DISS.after(S).after(DISS.inverse())


def _scan_image(T, A):
    """Image of A read word by word off a scan of every branch of T."""
    words = []
    for w in A.words:
        for br in T.branches:
            u, v, _ = br
            if w[: len(u)] == u:
                words.append(refine_branch(T.sig, br, w)[1])
                break
            if u[: len(w)] == w:
                words.append(v)
    return Clopen.make(T.sig, words)


def test_image_matches_the_branch_scan_oracle():
    rng = random.Random(53)
    for _ in range(40):
        for T in _image_maps(rng):
            for _ in range(4):
                A = random_clopen(rng, T.sig, depth=rng.randint(1, 9), max_words=24)
                assert T.image(A) == _scan_image(T, A)


def _intersect_then_walk(sig, branches, words):
    """The restriction as first defined: the pieces are the intersection of
    the domain words and the words, each refined from the branch above it."""
    out = []
    i = 0
    for w in space._intersection([u for u, _, _ in branches], words):
        while w[: len(branches[i][0])] != branches[i][0]:
            i += 1
        out.append(refine_branch(sig, branches[i], w))
    return out


@pytest.mark.parametrize("sig", SIGS)
def test_refine_to_matches_intersect_then_walk(sig):
    """On partial fragments (a random subset of a map's branches, or a
    composed fragment) and on canonical or complete-depth word lists."""
    rng = random.Random(59)
    for _ in range(150):
        S, T = random_homeo(rng, sig), random_homeo(rng, sig)
        if rng.random() < 0.5:
            A = random_clopen(rng, sig)
            frag = refine_to(sig, T.branches, A.words)
            frag = sorted(compose_branches(sig, S.branches, frag))
        else:
            frag = [br for br in S.after(T).branches if rng.random() < 0.6]
        if rng.random() < 0.5:
            words = list(random_clopen(rng, sig, depth=5, max_words=8).words)
        else:
            words = sig.words(rng.randint(0, 4))
        assert refine_to(sig, frag, words) == _intersect_then_walk(sig, frag, words)


def test_image_refines_at_most_words_plus_branches(monkeypatch):
    rng = random.Random(61)
    calls = []

    def counted(sig, br, w):
        calls.append(None)
        return refine_branch(sig, br, w)

    monkeypatch.setattr(homeo, "refine_branch", counted)
    for _ in range(30):
        for T in _image_maps(rng):
            A = random_clopen(rng, T.sig, depth=rng.randint(1, 9), max_words=24)
            del calls[:]
            T.image(A)
            assert len(calls) <= len(A.words) + len(T.branches)


# sha256 of the results below as first recorded: the indices and moduli, the
# failure level, or the refusal of an odometer over another signature
CENTRALIZER_SHA256 = "4a2f562a0f0315a1b3760f417a0d2978b1eb5689baa84775b0a34fabcad2b70f"


def test_centralizer_digest():
    h = hashlib.sha256()
    rng = random.Random(67)
    for i in range(300):
        sig = SIGS[i % 3]
        R = random_homeo(rng, sig)
        if rng.random() < 0.5:
            R = R.after(random_homeo(rng, sig))
        for k in (1, -1, 3):
            S = Odometer(sig if i % 10 else SIGS[(i + 1) % 3], k)
            for depth in range(5):
                try:
                    res = centralizer_index_sequence(R, S, depth)
                except ValueError as exc:
                    res = str(exc)
                h.update(_sorted_repr(res).encode() + b"\n")
    assert h.hexdigest() == CENTRALIZER_SHA256
