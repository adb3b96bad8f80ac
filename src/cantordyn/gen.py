"""Seeded random test data: signatures, clopen sets, points, measures, maps,
partitions and whole canonical documents.

Every generator draws from the `random.Random` it is given in a fixed order,
so one seed always gives the same object.  The `gen` command, the tests and
the scripts all draw from here.
"""

from __future__ import annotations

from fractions import Fraction

from . import docformat as df
from .space import DYADIC, Clopen, Point, Signature
from .measure import Dirac, Mixture, ProductMeasure
from .homeo import Odometer, PrefixMap
from .topology import BarPNeighborhood, PNeighborhood, UniformNeighborhood, WeakBall


def random_signature(rng):
    if rng.random() < 0.5:
        return DYADIC
    pre = tuple(rng.randint(2, 4) for _ in range(rng.randint(0, 2)))
    per = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 2)))
    return Signature(pre, per)


def random_clopen(rng, sig, depth=3, max_words=5):
    """Up to max_words cylinders of depth 1 to depth."""
    words = []
    for _ in range(rng.randint(0, max_words)):
        d = rng.randint(1, depth)
        words.append(tuple(rng.randrange(sig.level(t)) for t in range(d)))
    return Clopen.make(sig, words)


def random_point(rng, sig):
    h = rng.randint(0, 2)
    head = tuple(rng.randrange(sig.level(t)) for t in range(h))
    horizon = len(sig.preperiod) + len(sig.period) + h
    lo = min(sig.level(t) for t in range(h, horizon + 1))
    cycle = tuple(rng.randrange(lo) for _ in range(rng.randint(1, 2)))
    return Point.make(sig, head, cycle)


def random_product(rng, sig):
    rows = []
    for t in range(len(sig.preperiod) + len(sig.period)):
        raw = [rng.randint(1, 4) for _ in range(sig.level(t))]
        s = sum(raw)
        rows.append(tuple(Fraction(x, s) for x in raw))
    k = len(sig.preperiod)
    return ProductMeasure.make(sig, rows[:k], rows[k:])


def random_measure(rng, sig):
    c = rng.randrange(4)
    if c == 0:
        return ProductMeasure.uniform(sig)
    if c == 1:
        return random_product(rng, sig)
    if c == 2:
        return Dirac(sig, random_point(rng, sig))
    atom = Dirac(sig, random_point(rng, sig))
    w = Fraction(rng.randint(1, 3), 4)
    return Mixture.make(sig, [(w, ProductMeasure.uniform(sig)), (1 - w, atom)])


def random_homeo(rng, sig, depth=3):
    """An odometer shift, a tree pair permuting the cylinders of a depth
    drawn from 1 to depth, or the odometer after such a tree pair."""
    c = rng.randrange(3)
    if c == 0:
        return Odometer(sig, rng.choice([-2, -1, 1, 2, 3]))
    words = list(sig.words(rng.randint(1, depth)))
    perm = list(words)
    rng.shuffle(perm)
    tp = PrefixMap.tree_pair(sig, list(zip(words, perm)))
    if c == 1:
        return tp
    return Odometer(sig, 1).after(tp)


def random_partition(rng, sig, max_atoms=16):
    """The cylinders of a depth from 1 to 4 dealt into 2 to max_atoms atoms."""
    d = rng.randint(1, 4)
    words = list(sig.words(d))
    k = rng.randint(2, min(max_atoms, len(words)))
    groups = [[] for _ in range(k)]
    for i, w in enumerate(words):
        groups[i % k if i < k else rng.randrange(k)].append(w)
    return [Clopen.make(sig, g) for g in groups]


def _doc_clopen(rng, sig):
    """random_document's clopen shape: the depth drawn first, up to 4 words."""
    return random_clopen(rng, sig, rng.randint(1, 3), max_words=4)


def random_document(rng, kind=None):
    """A document of the given kind (one drawn when None) over a drawn
    signature; the printed form of each is canonical."""
    if kind is None:
        kind = rng.choice(df.KINDS)
    sig = random_signature(rng)
    if kind == "signature":
        return df.doc_signature(sig)
    if kind == "clopen":
        return df.doc_clopen(_doc_clopen(rng, sig))
    if kind == "measure":
        return df.doc_measure(random_measure(rng, sig))
    if kind == "homeo":
        return df.doc_homeo(random_homeo(rng, sig, depth=2))
    if kind == "neighborhood":
        base = random_homeo(rng, sig, depth=2)
        c = rng.randrange(4)
        eps = Fraction(1, rng.choice([2, 4, 8]))
        if c == 0:
            return df.doc_neighborhood(WeakBall(base, eps))
        if c == 1:
            sets = tuple(_doc_clopen(rng, sig) for _ in range(rng.randint(1, 2)))
            return df.doc_neighborhood(PNeighborhood(base, sets))
        if c == 2:
            mus = tuple(random_measure(rng, sig) for _ in range(rng.randint(1, 2)))
            return df.doc_neighborhood(UniformNeighborhood(base, mus, eps))
        sets = (_doc_clopen(rng, sig),)
        mus = (random_measure(rng, sig),)
        return df.doc_neighborhood(BarPNeighborhood(base, sets, mus, eps))
    if kind == "castle":
        towers = []
        for _ in range(rng.randint(1, 3)):
            b = _doc_clopen(rng, sig)
            towers.append((b, rng.randint(1, 5)))
        base = _doc_clopen(rng, sig)
        bound = tuple(Fraction(rng.randint(0, 8), 8) for _ in range(2))
        return df.doc_castle(sig, towers, base, bound)
    entries = {
        "bound": Fraction(rng.randint(0, 8), 8),
        "ok": rng.random() < 0.5,
        "set": _doc_clopen(rng, sig),
        "order": rng.randint(1, 16),
    }
    return df.doc_certificate(sig, rng.choice(["check", "witness"]), entries)
