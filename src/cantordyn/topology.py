"""Neighborhood predicates, defect functionals, and the weak metric.

Membership in a neighborhood is decided exactly whenever both operands
resolve to exact maps; for set-level tower systems the weak distance is a
certified interval and a ball test straddled by the interval reports
indeterminate-at-depth instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction

from .space import Clopen, Value, is_partition
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
    return _tower_interval(S, T)


def _tower_interval(S, T):
    if isinstance(S, TowerSystem) and isinstance(T, TowerSystem):
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
    EXHAUSTIVE_ATOM_LIMIT atoms.  kind "bar_tau" maximizes
    |mu(TF) - mu(SF)| exactly for any number of atoms: S and T are
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
    sig = atoms[0].sig
    best = Fraction(0)
    for mask in range(1 << n):
        sf = tf = Clopen.empty(sig)
        for i in range(n):
            if mask >> i & 1:
                sf = sf | simgs[i]
                tf = tf | timgs[i]
        best = max(best, measure_of(mu, tf ^ sf))
    return best


def limsup_check(sequence, F):
    """Whether F equals the union over m of the intersections of T_n F for
    n > m, at the finite horizon of the supplied sequence."""
    n = len(sequence)
    if n < 2:
        raise ValueError("need at least two terms")
    sig = F.sig
    images = [T.image(F) for T in sequence]
    acc = Clopen.empty(sig)
    for m in range(n - 1):
        inter = images[m + 1]
        for k in range(m + 2, n):
            inter = inter & images[k]
        acc = acc | inter
    return acc == F


def partition_gap(partition):
    """min over atoms of min(diameter, distance to the other atoms)."""
    vals = []
    for i, a in enumerate(partition):
        vals.append(a.diameter())
        for b in partition[i + 1 :]:
            vals.append(a.dist(b))
    return min(vals)
