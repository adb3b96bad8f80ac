import os
import random

import pytest

import cantordyn

from cantordyn.space import DYADIC, Clopen, Signature
from cantordyn.homeo import Odometer, PrefixMap, as_prefix_map

SIGS = [DYADIC, Signature((), (2, 3)), Signature((3,), (2,))]


def mask(A, depth):
    """Depth-d word set of a clopen set; the independent set oracle."""
    out = set()
    for w in A.words:
        out.update(_expand(A.sig, w, depth))
    return frozenset(out)


def _expand(sig, w, depth):
    if len(w) >= depth:
        return [w]
    out = [w]
    for t in range(len(w), depth):
        out = [u + (d,) for u in out for d in range(sig.level(t))]
    return out


def random_clopen(rng, sig, depth=3):
    words = []
    for _ in range(rng.randint(0, 5)):
        d = rng.randint(1, depth)
        words.append(tuple(rng.randrange(sig.level(t)) for t in range(d)))
    return Clopen.make(sig, words)


def random_homeo(rng, sig, depth=3):
    """Tree pair on a random uneven domain partition, optionally with carries."""
    c = rng.randrange(3)
    if c == 0:
        return as_prefix_map(Odometer(sig, rng.choice([-2, -1, 1, 2, 3])))
    d = rng.randint(1, depth)
    words = list(sig.words(d))
    perm = list(words)
    rng.shuffle(perm)
    tp = PrefixMap.tree_pair(sig, list(zip(words, perm)))
    if c == 1:
        return tp
    return as_prefix_map(Odometer(sig, 1)).after(tp)


def random_partition(rng, sig, max_atoms=16):
    d = rng.randint(1, 4)
    words = list(sig.words(d))
    k = rng.randint(2, min(max_atoms, len(words)))
    groups = [[] for _ in range(k)]
    for i, w in enumerate(words):
        groups[i % k if i < k else rng.randrange(k)].append(w)
    return [Clopen.make(sig, g) for g in groups]


@pytest.fixture
def rng():
    return random.Random(20240817)


def subprocess_env():
    """Environment for child processes that import the same cantordyn as this
    process."""
    root = os.path.dirname(os.path.dirname(cantordyn.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}


@pytest.fixture
def compositions(monkeypatch):
    """Records one entry per PrefixMap.after call made during the test."""
    calls = []
    after = PrefixMap.after

    def counted(self, other):
        calls.append(None)
        return after(self, other)

    monkeypatch.setattr(PrefixMap, "after", counted)
    return calls
