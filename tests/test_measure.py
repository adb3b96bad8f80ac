import random
from fractions import Fraction

import pytest

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
from cantordyn.gen import random_clopen

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
