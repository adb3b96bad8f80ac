"""Neighborhood predicates, defect functionals, and the weak metric.

Membership in a neighborhood is decided exactly whenever both operands
resolve to exact maps; for set-level tower systems the weak distance is a
certified interval and a ball test straddled by the interval reports
indeterminate-at-depth instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm

from .space import Value, is_partition
from .measure import measure_of, open_diff_mass
from .homeo import (
    TowerSystem,
    difference_set,
    weak_distance,
)

EXHAUSTIVE_ATOM_LIMIT = 20


class PNeighborhood(Value):
    base: object
    sets: tuple


class UniformNeighborhood(Value):
    base: object
    measures: tuple
    epsilon: Fraction


class BarPNeighborhood(Value):
    base: object
    sets: tuple
    measures: tuple
    epsilon: Fraction


class WeakBall(Value):
    base: object
    radius: Fraction


class Membership(Value):
    ok: bool
    certificate: dict


class IndeterminateAtDepth(Exception):
    """Interval comparison straddles the threshold at current resolution."""

    def __init__(self, interval):
        self.interval = interval
        super().__init__(f"indeterminate at depth: interval {interval}")


def weak_distance_interval(S, T):
    """Exact value as a degenerate interval, or a certified enclosure when a
    set-level tower system is involved."""
    towers = [h for h in (S, T) if isinstance(h, TowerSystem)]
    if not towers:
        v = weak_distance(S, T)
        return (v, v)
    if len(towers) == 2:
        raise NotImplementedError("interval for two tower systems not supported")
    tower, other = (S, T) if isinstance(S, TowerSystem) else (T, S)
    other_inv = other.inverse()
    lo = hi = lo_inv = hi_inv = Fraction(0)
    cycle = tower.levels[-1]
    m = len(cycle)
    for i, atom in enumerate(cycle):
        nxt = cycle[(i + 1) % m]
        img = other.image(atom)
        lo = max(lo, img.dist(nxt))
        hi = max(hi, (img | nxt).diameter())
        prv = cycle[(i - 1) % m]
        pre = other_inv.image(atom)
        lo_inv = max(lo_inv, pre.dist(prv))
        hi_inv = max(hi_inv, (pre | prv).diameter())
    return (lo + lo_inv, hi + hi_inv)


def in_neighborhood(S, N):
    """Exact membership with a certificate; raises IndeterminateAtDepth when
    only an interval straddling the threshold is available."""
    if isinstance(N, PNeighborhood):
        wrong = [F for F in N.sets if S.image(F) != N.base.image(F)]
        return Membership(not wrong, {"mismatched_sets": wrong})
    if isinstance(N, UniformNeighborhood):
        E = difference_set(S, N.base)
        values = [open_diff_mass(mu, E) for mu in N.measures]
        return Membership(
            all(v < N.epsilon for v in values),
            {"difference_set": E, "measures_of_difference": values},
        )
    if isinstance(N, BarPNeighborhood):
        T = N.base
        Si, Ti = S.inverse(), T.inverse()
        worst = Fraction(0)
        detail = []
        for F in N.sets:
            for mu in N.measures:
                v = measure_of(mu, S.image(F) ^ T.image(F)) + measure_of(
                    mu, Si.image(F) ^ Ti.image(F)
                )
                detail.append((F, v))
                worst = max(worst, v)
        return Membership(worst < N.epsilon, {"max_defect": worst, "detail": detail})
    if isinstance(N, WeakBall):
        lo, hi = weak_distance_interval(S, N.base)
        if hi < N.radius:
            return Membership(True, {"weak_distance": (lo, hi)})
        if lo >= N.radius:
            return Membership(False, {"weak_distance": (lo, hi)})
        raise IndeterminateAtDepth((lo, hi))
    raise TypeError(f"unknown neighborhood kind {type(N).__name__}")


def defect_over_partition(kind, S, T, mu, partition):
    """Certified defect sup over unions of the atoms of a partition.

    kind "tau_prime" maximizes mu(TF ^ SF), exhaustively, up to
    EXHAUSTIVE_ATOM_LIMIT atoms, as a cut: the S- and the T-images of the
    atoms each partition the space, so with w_ij = mu(S a_i & T a_j),
    mu(TF ^ SF) sums w_ij + w_ji over i in F and j not in F.  kind "bar_tau"
    maximizes |mu(TF) - mu(SF)| exactly for any number of atoms: S and T are
    bijections, so mu(TF) - mu(SF) is the sum of d_i = mu(T a_i) - mu(S a_i)
    over the atoms a_i of F, and the largest |sum| is that of the positive
    d_i or of the negative ones.
    """
    if kind not in ("tau_prime", "bar_tau"):
        raise ValueError("kind must be tau_prime or bar_tau")
    atoms = list(partition)
    if not is_partition(atoms):
        raise ValueError("input sets do not partition the space")
    simgs = [S.image(a) for a in atoms]
    timgs = [T.image(a) for a in atoms]
    if kind == "bar_tau":
        d = [measure_of(mu, t) - measure_of(mu, s) for s, t in zip(simgs, timgs)]
        gain = sum((x for x in d if x > 0), Fraction(0))
        loss = -sum((x for x in d if x < 0), Fraction(0))
        return max(gain, loss)
    n = len(atoms)
    if n > EXHAUSTIVE_ATOM_LIMIT:
        raise ValueError(
            f"partition has more than {EXHAUSTIVE_ATOM_LIMIT} atoms; "
            "the tau_prime defect is computed only up to that"
        )
    if mu.sig != atoms[0].sig:
        raise ValueError("signature mismatch")
    # the w_ij as numerators over one common denominator d
    ratios = [mu.clopen_ratio(s & t) for s in simgs for t in timgs]
    d = lcm(*(b for _, b in ratios))
    w = [a * (d // b) for a, b in ratios]
    c = [[w[i * n + j] + w[j * n + i] for j in range(n)] for i in range(n)]
    best = 0
    # F and its complement have the same cut, so atom n - 1 stays out of F
    for mask in range(1 << (n - 1)):
        inside = [mask >> i & 1 for i in range(n)]
        outside = [1 - x for x in inside]
        best = max(best, sum(sum(compress(r, outside)) for r in compress(c, inside)))
    return Fraction(best, d)


def limsup_check(sequence, F):
    """Whether F equals the union over m of the intersections of T_k F for
    k > m, at the finite horizon of the supplied sequence.

    The intersection over k > m only grows with m, and for the last m it is
    the one image T_{n-1} F, so the union is that image.
    """
    if len(sequence) < 2:
        raise ValueError("need at least two terms")
    return sequence[-1].image(F) == F


def partition_gap(partition):
    """min over atoms of min(diameter, distance to the other atoms)."""
    vals = []
    for i, a in enumerate(partition):
        vals.append(a.diameter())
        for b in partition[i + 1 :]:
            vals.append(a.dist(b))
    return min(vals)
