import os
import random

import pytest

import cantordyn

from cantordyn.space import DYADIC, Signature
from cantordyn.homeo import PrefixMap

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


@pytest.fixture
def rng():
    return random.Random(20240817)


def subprocess_env():
    """Environment for child processes that import the same cantordyn as this
    process."""
    root = os.path.dirname(os.path.dirname(cantordyn.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}


def _counted(monkeypatch, name):
    calls = []
    method = getattr(PrefixMap, name)

    def counted(self, *args):
        calls.append(None)
        return method(self, *args)

    monkeypatch.setattr(PrefixMap, name, counted)
    return calls


@pytest.fixture
def compositions(monkeypatch):
    """Records one entry per PrefixMap.after call made during the test."""
    return _counted(monkeypatch, "after")


@pytest.fixture
def inversions(monkeypatch):
    """Records one entry per PrefixMap.inverse call made during the test."""
    return _counted(monkeypatch, "inverse")


@pytest.fixture
def images(monkeypatch):
    """Records one entry per PrefixMap.image call made during the test."""
    return _counted(monkeypatch, "image")
