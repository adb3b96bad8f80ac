"""Exact rational Borel probability measures on the Cantor model.

Three families, each exactly evaluable on clopen sets: product measures with
eventually periodic level weights, Dirac measures at eventually periodic
points, and finite convex mixtures of the other two.  No floating point.

Masses are exact integer products: a word's mass is the product of its row
entries' numerators over the product of their denominators, a set's and a
mixture's masses are integer sums over a common denominator (clopen_ratio),
and one Fraction is built per result, so every mass is the same reduced
Fraction that digit-by-digit Fraction arithmetic gives.

measure_text is the one notation for measures, as space.word_text is for
words: the .cdyn documents print with it, and Mixture.make sorts its
components by it, so a mixture is canonical as built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .space import Point, Value, point_text


def _sum_ratios(ratios):
    """Exact sum of (numerator, denominator) int pairs, over the lcm of the
    denominators; neither the pairs nor the sum need be reduced."""
    n, d = 0, 1
    for a, b in ratios:
        if b != d:
            g = gcd(d, b)
            n *= b // g
            a *= d // g
            d = d // g * b
        n += a
    return n, d


class ProductMeasure(Value):
    """Independent digits; weight rows eventually periodic like the signature.

    preweights[t] is the probability vector at level t for t < len(preweights);
    beyond that, cycleweights repeats.  Rows must match the level sizes, which
    forces len(preweights) and len(cycleweights) to be compatible with the
    signature's preperiod and period (checked on construction).
    """

    sig: object
    preweights: tuple = ()
    cycleweights: tuple = None

    @staticmethod
    def uniform(sig):
        rows = [(Fraction(1, lam),) * lam for lam in sig.preperiod + sig.period]
        k = len(sig.preperiod)
        return ProductMeasure(sig, tuple(rows[:k]), tuple(rows[k:]))

    @staticmethod
    def make(sig, preweights, cycleweights):
        pre = tuple(tuple(Fraction(x) for x in row) for row in preweights)
        cyc = tuple(tuple(Fraction(x) for x in row) for row in cycleweights)
        m = ProductMeasure(sig, pre, cyc)
        if len(pre) < len(sig.preperiod) or (len(pre) - len(sig.preperiod)) % len(
            sig.period
        ) or not cyc or len(cyc) % len(sig.period):
            raise ValueError("weight rows misaligned with the signature period")
        for t, row in enumerate(pre + cyc):
            if len(row) != sig.level(t):
                raise ValueError(f"weight row {t} has wrong length")
            if sum(row) != 1:
                raise ValueError(f"product weights at position {t} do not sum to 1")
            if any(w < 0 for w in row):
                raise ValueError(f"negative weight in product position {t}")
        return m

    def all_rows_uniform(self):
        rows = self.preweights + self.cycleweights
        return all(x * len(row) == 1 for row in rows for x in row)

    def row(self, t):
        if t < len(self.preweights):
            return self.preweights[t]
        return self.cycleweights[(t - len(self.preweights)) % len(self.cycleweights)]

    def word_ratio(self, w):
        """Mass of the cylinder of w as (numerator, denominator) ints: the
        products of the numerators and of the denominators of its row
        entries, not reduced."""
        pre, cyc = self.preweights, self.cycleweights
        p, c = len(pre), len(cyc)
        num = den = 1
        for t, d in enumerate(w):
            x = pre[t][d] if t < p else cyc[(t - p) % c][d]
            num *= x.numerator
            den *= x.denominator
        return num, den

    def clopen_ratio(self, A):
        # one word needs no common-denominator sum
        words = A.words
        if len(words) == 1:
            return self.word_ratio(words[0])
        return _sum_ratios(map(self.word_ratio, words))

    def point_mass(self, x):
        # nonzero only when the weight of every digit along the tail is 1
        head_len = max(len(x.head), len(self.preweights))
        m = Fraction(1)
        for t in range(head_len):
            m *= self.row(t)[x.digit(t)]
            if m == 0:
                return Fraction(0)
        span = lcm(len(x.cycle), len(self.cycleweights))
        for i in range(span):
            if self.row(head_len + i)[x.digit(head_len + i)] != 1:
                return Fraction(0)
        return m


class Dirac(Value):
    sig: object
    atom: Point

    def clopen_ratio(self, A):
        return (1, 1) if self.atom.in_clopen(A) else (0, 1)

    def point_mass(self, x):
        return Fraction(1) if x == self.atom else Fraction(0)


class Mixture(Value):
    sig: object
    components: tuple  # of (Fraction weight, measure), sorted by measure_text

    @staticmethod
    def make(sig, components):
        comps = tuple(
            sorted(
                ((Fraction(w), m) for w, m in components),
                key=lambda wm: measure_text(wm[1]),
            )
        )
        if any(w <= 0 for w, _ in comps):
            raise ValueError("mixture weights must be positive")
        if sum(w for w, _ in comps) != 1:
            raise ValueError("mixture weights must sum to 1")
        return Mixture(sig, comps)

    def clopen_ratio(self, A):
        """Sum of weight times component mass, as (numerator, denominator)."""
        ratios = []
        for w, m in self.components:
            a, b = m.clopen_ratio(A)
            ratios.append((w.numerator * a, w.denominator * b))
        return _sum_ratios(ratios)

    def point_mass(self, x):
        return sum((w * m.point_mass(x) for w, m in self.components), Fraction(0))


def measure_text(mu):
    if isinstance(mu, ProductMeasure):
        if mu.all_rows_uniform():
            return "uniform"
        pre = ";".join(",".join(str(x) for x in row) for row in mu.preweights)
        cyc = ";".join(",".join(str(x) for x in row) for row in mu.cycleweights)
        return f"product[{pre}|{cyc}]"
    if isinstance(mu, Dirac):
        return f"dirac {point_text(mu.sig, mu.atom)}"
    if isinstance(mu, Mixture):
        parts = [f"{w} {measure_text(m)}" for w, m in mu.components]
        return "mix(" + " + ".join(parts) + ")"
    raise TypeError(f"unknown measure kind {type(mu).__name__}")


def measure_of(mu, A):
    """Exact measure of a clopen set."""
    if mu.sig != A.sig:
        raise ValueError("signature mismatch")
    return Fraction(*mu.clopen_ratio(A))


def point_mass(mu, x):
    if mu.sig != x.sig:
        raise ValueError("signature mismatch")
    return mu.point_mass(x)


def open_diff_mass(mu, E):
    """Measure of an OpenDiffSet: clopen core minus its exceptional points."""
    total = measure_of(mu, E.core)
    for x in E.removed:
        if x.in_clopen(E.core):
            total -= point_mass(mu, x)
    return total
