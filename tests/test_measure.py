import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantordyn.space import DYADIC, Clopen, Point, Signature
from cantordyn.measure import (
    Dirac,
    Mixture,
    ProductMeasure,
    measure_of,
    open_diff_mass,
    point_mass,
)
from cantordyn.homeo import PrefixMap, difference_set
from cantordyn.gen import random_clopen, random_point

from conftest import SIGS


@pytest.mark.parametrize("sig", SIGS)
def test_uniform_masses(sig):
    mu = ProductMeasure.uniform(sig)
    assert measure_of(mu, Clopen.full(sig)) == 1
    assert measure_of(mu, Clopen.empty(sig)) == 0
    w = (0, 1)
    assert measure_of(mu, Clopen.cylinder(sig, w)) == Fraction(
        1, sig.level(0) * sig.level(1)
    )


@pytest.mark.parametrize("sig", SIGS)
def test_additivity_and_monotonicity(sig):
    rng = random.Random(5)
    mu = ProductMeasure.uniform(sig)
    for _ in range(40):
        A = random_clopen(rng, sig)
        B = random_clopen(rng, sig)
        assert measure_of(mu, A | B) + measure_of(mu, A & B) == measure_of(
            mu, A
        ) + measure_of(mu, B)
        if A <= B:
            assert measure_of(mu, A) <= measure_of(mu, B)
        assert measure_of(mu, A.complement()) == 1 - measure_of(mu, A)


def test_product_weights():
    sig = Signature((), (2,))
    mu = ProductMeasure.make(
        sig, [], [(Fraction(1, 3), Fraction(2, 3))]
    )
    assert measure_of(mu, Clopen.cylinder(sig, (1,))) == Fraction(2, 3)
    assert measure_of(mu, Clopen.cylinder(sig, (1, 1))) == Fraction(4, 9)
    with pytest.raises(ValueError):
        ProductMeasure.make(sig, [], [(Fraction(1, 2), Fraction(1, 3))])


def test_product_point_mass():
    sig = DYADIC
    mu = ProductMeasure.make(sig, [], [(Fraction(0), Fraction(1))])
    ones = Point.make(sig, (), (1,))
    assert point_mass(mu, ones) == 1
    assert point_mass(mu, Point.make(sig, (0,), (1,))) == 0
    uni = ProductMeasure.uniform(sig)
    assert point_mass(uni, ones) == 0


def test_dirac_and_mixture():
    sig = DYADIC
    x = Point.make(sig, (0,), (1,))
    d = Dirac(sig, x)
    assert measure_of(d, Clopen.cylinder(sig, (0,))) == 1
    assert measure_of(d, Clopen.cylinder(sig, (1,))) == 0
    mix = Mixture.make(
        sig, [(Fraction(1, 4), d), (Fraction(3, 4), ProductMeasure.uniform(sig))]
    )
    assert measure_of(mix, Clopen.cylinder(sig, (0,))) == Fraction(1, 4) + Fraction(
        3, 8
    )
    assert point_mass(mix, x) == Fraction(1, 4)
    with pytest.raises(ValueError):
        Mixture.make(sig, [(Fraction(1, 2), d)])


def test_open_diff_mass_subtracts_removed_points():
    sig = DYADIC
    diss = PrefixMap.tree_pair(
        sig, [((0,), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (1,))]
    )
    E = difference_set(PrefixMap.identity(sig), diss)
    # the map moves every point except its two fixed streams
    assert E.core == Clopen.full(sig)
    assert E.removed == (Point.make(sig, (), (0,)), Point.make(sig, (), (1,)))
    uni = ProductMeasure.uniform(sig)
    assert open_diff_mass(uni, E) == 1
    d = Dirac(sig, E.removed[0])
    assert open_diff_mass(d, E) == 0
    mix = Mixture.make(sig, [(Fraction(1, 2), uni), (Fraction(1, 2), d)])
    assert open_diff_mass(mix, E) == Fraction(1, 2)


# -- exact masses against a digit-by-digit Fraction oracle ---------------------


def _oracle_row(rows, t):
    """Weight row at level t of raw (preweights, cycleweights) rows."""
    pre, cyc = rows
    return pre[t] if t < len(pre) else cyc[(t - len(pre)) % len(cyc)]


def _oracle_product(rows, words):
    total = Fraction(0)
    for w in words:
        m = Fraction(1)
        for t, d in enumerate(w):
            m *= _oracle_row(rows, t)[d]
        total += m
    return total


def _oracle_dirac(head, cycle, words):
    def digit(t):
        return head[t] if t < len(head) else cycle[(t - len(head)) % len(cycle)]

    inside = any(all(digit(t) == d for t, d in enumerate(w)) for w in words)
    return Fraction(int(inside))


def _oracle_mass(mu, words):
    if isinstance(mu, ProductMeasure):
        return _oracle_product((mu.preweights, mu.cycleweights), words)
    if isinstance(mu, Dirac):
        return _oracle_dirac(mu.atom.head, mu.atom.cycle, words)
    return sum((w * _oracle_mass(m, words) for w, m in mu.components), Fraction(0))


@st.composite
def products(draw, sig):
    """Product measures whose rows run past the signature's preperiod and
    repeat over one or two periods, with random weights, zeros included."""

    def row(t):
        size = sig.level(t)
        raw = draw(
            st.lists(st.integers(0, 5), min_size=size, max_size=size).filter(any)
        )
        return [Fraction(x, sum(raw)) for x in raw]

    p = len(sig.period)
    pre = len(sig.preperiod) + p * draw(st.integers(0, 1))
    cyc = p * draw(st.integers(1, 2))
    rows = [row(t) for t in range(pre + cyc)]
    return ProductMeasure.make(sig, rows[:pre], rows[pre:])


@st.composite
def measures(draw, sig):
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["product", "uniform", "dirac", "mixture"]))
    if kind == "product":
        return draw(products(sig))
    if kind == "uniform":
        return ProductMeasure.uniform(sig)
    dirac = Dirac(sig, random_point(rng, sig))
    if kind == "dirac":
        return dirac
    parts = [draw(products(sig)), dirac, ProductMeasure.uniform(sig)]
    raw = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    return Mixture.make(sig, [(Fraction(x, sum(raw)), m) for x, m in zip(raw, parts)])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SIGS + [Signature((3,), (2, 4))]).flatmap(
        lambda sig: st.tuples(st.just(sig), measures(sig), st.randoms(use_true_random=False))
    )
)
def test_masses_match_the_fraction_oracle(drawn):
    """Product, Dirac and mixture masses of random clopen sets (one word and
    many, depth up to 6) are the reduced Fractions that multiplying and
    adding Fractions digit by digit gives.  The last signature has a
    preperiod of odd length before a period of even length."""
    sig, mu, rng = drawn
    for max_words in (1, 8):
        A = random_clopen(rng, sig, depth=6, max_words=max_words)
        m = measure_of(mu, A)
        assert type(m) is Fraction
        assert m == _oracle_mass(mu, A.words)
        if isinstance(mu, ProductMeasure):
            for w in A.words:
                assert Fraction(*mu.word_ratio(w)) == _oracle_product(
                    (mu.preweights, mu.cycleweights), [w]
                )
    assert measure_of(mu, Clopen.full(sig)) == 1
    assert measure_of(mu, Clopen.empty(sig)) == 0
