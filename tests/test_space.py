import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantordyn.space import (
    DYADIC,
    Clopen,
    Point,
    Signature,
    Value,
    canonical_words,
    cyclic_partition,
    is_partition,
    partition_at_depth,
    point_distance,
)
from cantordyn.gen import random_clopen, random_partition, random_point
from cantordyn import docformat as df
from cantordyn.homeo import Odometer, PrefixMap, TowerSystem, difference_set
from cantordyn.measure import Dirac, Mixture, ProductMeasure
from cantordyn.synth import (
    odometer_in_weak_neighborhood,
    overlap_graph,
    periodic_approx_odometer,
    rokhlin_castle,
)
from cantordyn.topology import (
    BarPNeighborhood,
    PNeighborhood,
    UniformNeighborhood,
    WeakBall,
    in_neighborhood,
)

from conftest import SIGS, mask


def test_signature_levels_and_counts():
    s = Signature((3,), (2, 4))
    assert [s.level(t) for t in range(6)] == [3, 2, 4, 2, 4, 2]
    assert s.num_words(3) == 3 * 2 * 4
    assert s.shift(1) == Signature((), (2, 4))
    # shift drops consumed levels and stays eventually periodic
    assert s.shift(1).level(0) == 2 and s.shift(3).level(0) == 2


def test_signature_rejects_small_levels():
    with pytest.raises(ValueError):
        Signature((), (1,))
    with pytest.raises(ValueError):
        Signature((0,), (2,))


@pytest.mark.parametrize("sig", SIGS)
def test_index_word_roundtrip(sig):
    t = 3
    n = sig.num_words(t)
    ws = [sig.word_of_index(i, t) for i in range(n)]
    assert len(set(ws)) == n
    for i, w in enumerate(ws):
        assert sig.index(w) == i
    # level 0 is least significant
    assert sig.word_of_index(1, t)[0] == 1


def digit_word(sig, depth):
    """Words of length 0 to 5 whose digit i sits at level depth + i."""
    return st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            *(st.integers(0, sig.level(depth + i) - 1) for i in range(n))
        )
    )


# a preperiod of odd length before a period of even length: counting the
# period's positions from level 0, not from the end of the preperiod, reads
# the wrong level size
UNEVEN = Signature((3,), (2, 4))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.sampled_from(SIGS + [UNEVEN]), st.integers(0, 5)).flatmap(
        lambda sd: st.tuples(st.just(sd[0]), st.just(sd[1]), digit_word(*sd))
    ),
    st.integers(-100, 100) | st.integers(-(10**6), 10**6),
)
def test_add_to_word_against_index(drawn, c):
    """r . y + c = r2 . (y + k): the mixed-radix value of the word absorbs c
    up to a multiple of the number of words, which is the carry k.  Large
    c carries through every digit, across the preperiod and the period."""
    sig, depth, r = drawn
    r2, k = sig.add_to_word(depth, r, c)
    sub = sig.shift(depth)
    n = sub.num_words(len(r))
    assert len(r2) == len(r) and sub.valid_word(r2)
    assert sub.index(r2) + k * n == sub.index(r) + c
    assert r2 == sub.word_of_index(sub.index(r) + c, len(r))


def words_of(sig):
    """Lists of words up to depth 5, some replaced by their complete child
    family (up to depth 6), so that sibling merges cascade."""
    word = st.integers(0, 5).flatmap(
        lambda d: st.tuples(*(st.integers(0, sig.level(t) - 1) for t in range(d)))
    )
    family = word.map(lambda w: [w + (d,) for d in range(sig.level(len(w)))])
    return st.lists(st.one_of(word.map(lambda w: [w]), family), max_size=8).map(
        lambda groups: [w for g in groups for w in g]
    )


def sig_and_words(n):
    return st.sampled_from(SIGS).flatmap(
        lambda sig: st.tuples(st.just(sig), *(words_of(sig) for _ in range(n)))
    )


def assert_canonical(A):
    """Sorted, prefix-free and without a complete sibling family."""
    ws = A.words
    assert list(ws) == sorted(ws)
    for i, a in enumerate(ws):
        for b in ws[i + 1 :]:
            assert a != b[: len(a)] and b != a[: len(b)]
    parents = {}
    for w in ws:
        if w:
            parents[w[:-1]] = parents.get(w[:-1], 0) + 1
    for p, cnt in parents.items():
        assert cnt < A.sig.level(len(p))


D = 6  # mask depth, at least the depth of every drawn word


@settings(max_examples=200, deadline=None)
@given(sig_and_words(1))
def test_canonical_words_properties(drawn):
    sig, ws = drawn
    canon = canonical_words(sig, ws)
    A = Clopen(sig, canon)
    assert canonical_words(sig, canon) == canon
    assert_canonical(A)
    assert mask(A, D) == frozenset(u for w in ws for u in mask(Clopen(sig, (w,)), D))


@settings(max_examples=200, deadline=None)
@given(sig_and_words(2))
def test_boolean_algebra_against_mask_oracle(drawn):
    sig, wa, wb = drawn
    A = Clopen.make(sig, wa)
    B = Clopen.make(sig, wb)
    ma, mb = mask(A, D), mask(B, D)
    cases = ((A | B, ma | mb), (A & B, ma & mb), (A - B, ma - mb), (A ^ B, ma ^ mb))
    for C, expected in cases:
        assert mask(C, D) == expected
        assert_canonical(C)
    full = mask(Clopen.full(sig), D)
    assert mask(A.complement(), D) == full - ma
    assert (A <= B) == (ma <= mb)
    # De Morgan
    assert (A | B).complement() == A.complement() & B.complement()
    assert (A & B).complement() == A.complement() | B.complement()


@pytest.mark.parametrize("sig", SIGS)
def test_boolean_identities_random(sig):
    rng = random.Random(7)
    for _ in range(40):
        A = random_clopen(rng, sig)
        B = random_clopen(rng, sig)
        C = random_clopen(rng, sig)
        assert A & (B | C) == (A & B) | (A & C)
        assert A | (B & C) == (A | B) & (A | C)
        assert A - B == A & B.complement()
        assert (A ^ B) == (A | B) - (A & B)


def test_diameter_and_distance():
    sig = DYADIC
    assert Clopen.full(sig).diameter() == 1
    assert Clopen.cylinder(sig, (0,)).diameter() == Fraction(1, 2)
    assert Clopen.cylinder(sig, (0, 1)).diameter() == Fraction(1, 4)
    with pytest.raises(ValueError):
        Clopen.empty(sig).diameter()
    a = Clopen.cylinder(sig, (0,))
    b = Clopen.cylinder(sig, (1,))
    assert a.dist(b) == 1
    c = Clopen.cylinder(sig, (0, 0))
    d = Clopen.cylinder(sig, (0, 1))
    assert c.dist(d) == Fraction(1, 2)
    assert a.dist(a) == 0


def test_distance_matches_brute_force():
    sig = DYADIC
    rng = random.Random(3)
    D = 5
    for _ in range(30):
        A = random_clopen(rng, sig)
        B = random_clopen(rng, sig)
        if A.is_empty or B.is_empty:
            continue
        best = None
        for wa in mask(A, D):
            for wb in mask(B, D):
                if wa == wb:
                    v = Fraction(0)
                else:
                    k = 0
                    while wa[k] == wb[k]:
                        k += 1
                    v = Fraction(1, 2**k)
                best = v if best is None else min(best, v)
        assert A.dist(B) == best


@pytest.mark.parametrize("sig", SIGS)
def test_split_is_a_partition(sig):
    rng = random.Random(11)
    for _ in range(25):
        A = random_clopen(rng, sig)
        if A.is_empty:
            continue
        for m in (2, 3, 5):
            parts = A.split(m)
            assert len(parts) == m
            u = Clopen.empty(sig)
            for p in parts:
                assert not p.is_empty
                assert (u & p).is_empty
                u = u | p
            assert u == A


def test_partitions_at_depth():
    sig = Signature((), (2, 3))
    atoms = partition_at_depth(sig, 2)
    assert len(atoms) == 6
    assert is_partition(atoms)
    cyc = cyclic_partition(sig, 2)
    assert is_partition(cyc)
    assert [sig.index(a.words[0]) for a in cyc] == list(range(6))


@pytest.mark.parametrize("sig", SIGS)
def test_is_partition_against_mask_oracle(sig):
    """Random partitions, left as they are or given an empty atom, a repeated
    atom, an extra set that may overlap, or one atom fewer, judged by their
    depth-4 word masks."""
    rng = random.Random(29)
    full = mask(Clopen.full(sig), 4)
    seen = set()
    for _ in range(300):
        sets = random_partition(rng, sig, max_atoms=6)
        change = rng.randrange(5)
        if change == 1:
            sets.append(Clopen.empty(sig))
        elif change == 2:
            sets.append(rng.choice(sets))
        elif change == 3:
            sets.append(random_clopen(rng, sig))
        elif change == 4:
            sets.pop(rng.randrange(len(sets)))
        rng.shuffle(sets)
        masks = [mask(s, 4) for s in sets]
        union = frozenset().union(*masks)
        expected = sum(map(len, masks)) == len(union) and union == full
        assert is_partition(sets) == expected
        seen.add((change, expected))
    assert seen >= {(0, True), (1, True), (2, False), (3, True), (3, False), (4, False)}
    assert not is_partition([])
    assert is_partition([Clopen.empty(sig), Clopen.full(sig)])
    other = SIGS[(SIGS.index(sig) + 1) % len(SIGS)]
    with pytest.raises(ValueError, match="signature mismatch"):
        is_partition([Clopen.full(sig), Clopen.empty(other)])


def test_point_canonical_forms():
    sig = DYADIC
    a = Point.make(sig, (0,), (1, 0))
    b = Point.make(sig, (), (0, 1))
    assert a == b and hash(a) == hash(b)
    c = Point.make(sig, (), (1, 1))
    assert c.cycle == (1,)
    assert a != c
    x = Point.make(sig, (0, 1, 1), (1,))
    assert x.head == (0,)


def test_point_membership_and_distance():
    sig = DYADIC
    x = Point.make(sig, (0, 1), (0,))
    assert x.in_clopen(Clopen.cylinder(sig, (0,)))
    assert x.in_clopen(Clopen.cylinder(sig, (0, 1)))
    assert not x.in_clopen(Clopen.cylinder(sig, (1,)))
    y = Point.make(sig, (0, 0), (0,))
    assert point_distance(x, y) == Fraction(1, 2)
    assert point_distance(x, x) == 0
    assert point_distance(x, y) == point_distance(y, x)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SIGS),
    st.integers(0, 2**32),
    st.integers(0, 2**32),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(1, 3),
)
def test_point_spellings_make_one_value(sig, seed_x, seed_y, m, k, r):
    """Point.make maps every spelling of one stream to one value: the cycle
    repeated r times, k cycle digits rotated into the head, and the head
    extended by m whole cycles.  Equality then agrees with the metric."""
    x = random_point(random.Random(seed_x), sig)
    k %= len(x.cycle)
    rotated = x.cycle[k:] + x.cycle[:k]
    spelled = Point.make(sig, x.head + x.cycle * m + x.cycle[:k], rotated * r)
    assert spelled == x and hash(spelled) == hash(x)
    assert (spelled.head, spelled.cycle) == (x.head, x.cycle)
    y = random_point(random.Random(seed_y), sig)
    for z in (y, spelled):
        assert (x == z) == (point_distance(x, z) == 0)


# -- value types -------------------------------------------------------------------


def _values():
    """One small instance of each value type, mostly as the library builds it."""
    half = Fraction(1, 2)
    A = Clopen.make(DYADIC, [(0,), (1, 0)])
    x = Point.make(DYADIC, (1,), (0,))
    od = Odometer(DYADIC, 1)
    swap = PrefixMap.tree_pair(DYADIC, [((0,), (1,)), ((1,), (0,))])
    mu = ProductMeasure.uniform(DYADIC)
    dirac = Dirac(DYADIC, x)
    parts = partition_at_depth(DYADIC, 1)
    castle = rokhlin_castle(od, 2, [mu], Fraction(1, 4))
    castle_doc = df.doc_castle(DYADIC, [(b, h) for b, h, _ in castle.towers],
                               castle.base, castle.bound)
    return [
        Signature((3,), (2,)),
        A,
        x,
        swap,
        od,
        difference_set(od, swap),
        TowerSystem.from_cycle(parts).ensure_levels(2),
        mu,
        dirac,
        Mixture.make(DYADIC, [(half, mu), (half, dirac)]),
        PNeighborhood(swap, tuple(parts)),
        UniformNeighborhood(od, (mu,), half),
        BarPNeighborhood(od, tuple(parts), (mu,), half),
        WeakBall(od, half),
        in_neighborhood(swap, WeakBall(od, Fraction(5, 2))),
        overlap_graph(od, parts),
        odometer_in_weak_neighborhood(od, parts),
        castle,
        periodic_approx_odometer(od, "weak", epsilon=half),
        castle_doc,
        castle_doc.value,
        df.doc_certificate(DYADIC, "difference", {"core": A}).value,
    ]


VALUES = _values()


def _value_id(x):
    """The name of the value's type; the odometer, a PrefixMap as the swap
    is, is named after its constructor."""
    if isinstance(x, PrefixMap) and x.shift is not None:
        return "Odometer"
    return type(x).__name__


def _fields(x):
    return tuple(getattr(x, f) for f in type(x)._fields)


def test_every_value_type_has_an_instance():
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("cantordyn."):
                found.add(cls)
    assert found == {type(x) for x in VALUES}
    # the odometer and the swap are both PrefixMaps
    assert len(found) == len(VALUES) - 1 == 21


@pytest.mark.parametrize("x", VALUES, ids=_value_id)
def test_value_repr_names_class_and_fields(x):
    cls = type(x)
    if "__repr__" in vars(cls):
        assert cls.__name__ in {"Clopen", "Point", "PrefixMap", "OpenDiffSet"}
        assert repr(x).startswith(cls.__name__)
    else:
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in cls._fields)
        assert repr(x) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("x", VALUES, ids=_value_id)
def test_value_equals_only_its_own_type(x):
    fields = _fields(x)
    assert type(x)(*fields) == x
    annotations = dict.fromkeys(type(x)._fields)
    twin = type("Twin", (Value,), {"__annotations__": annotations})(*fields)
    assert _fields(twin) == fields
    assert x != twin and twin != x
    assert x != fields and fields != x
    assert x.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("x", VALUES, ids=_value_id)
def test_value_hash_is_the_field_tuple_hash(x):
    fields = _fields(x)
    try:
        want = hash(fields)
    except TypeError:  # a list or dict field: unhashable, like the fields
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want


@pytest.mark.parametrize("x", VALUES, ids=_value_id)
def test_value_is_immutable(x):
    fields = _fields(x)
    name = type(x)._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        setattr(x, "extra", None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert _fields(x) == fields and not hasattr(x, "extra")


@pytest.mark.parametrize("x", VALUES, ids=_value_id)
def test_value_pickles(x):
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x) and y == x


def test_value_constructor_arguments():
    assert Signature() == Signature((), (2,)) == Signature(period=(2,)) == DYADIC
    assert repr(Signature()) == "Signature(preperiod=(), period=(2,))"
    assert eval(repr(Signature((3,), (2, 4)))) == Signature((3,), (2, 4))
    with pytest.raises(ValueError):  # __post_init__ runs for keywords too
        Signature(period=())
    doc = df.Document(kind="clopen", value=Clopen.full(DYADIC))
    assert doc.version == df.VERSION and doc == df.doc_clopen(Clopen.full(DYADIC))
    assert Odometer(DYADIC).shift == 1
    (c,) = [x for x in VALUES if type(x).__name__ == "Castle"]
    assert type(c)(towers=c.towers, base=c.base, bound=c.bound) == c
    with pytest.raises(TypeError):
        Odometer()
    with pytest.raises(TypeError):
        Odometer(DYADIC, 1, 2)
    with pytest.raises(TypeError):
        Odometer(DYADIC, sift=1)


def test_words_under_a_prefix():
    sig = Signature((3,), (2,))
    for t in range(4):
        for u in sig.words(t):
            assert sig.words(t + 2, u) == [w for w in sig.words(t + 2) if w[:t] == u]
    assert sig.words(2, (1, 0)) == [(1, 0)]
