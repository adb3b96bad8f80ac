"""End-to-end acceptance checks, one test per contract item.

Each test pins its tolerance (zero unless a bound is stated) and its time
budget, and re-verifies certificates with independent oracles where one
exists: word-mask expansion for clopen algebra, BFS-plus-assignment for
circulations, subprocesses for CLI determinism.
"""

import collections
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cantordyn.space import (
    DYADIC,
    Clopen,
    Signature,
    is_partition,
    partition_at_depth,
)
from cantordyn.measure import Mixture, ProductMeasure, measure_of, open_diff_mass
from cantordyn.homeo import (
    Odometer,
    PrefixMap,
    as_prefix_map,
    centralizer_index_sequence,
    compose,
    difference_set,
    power,
    weak_distance,
)
from cantordyn.topology import PNeighborhood, in_neighborhood, partition_gap
from cantordyn.synth import (
    aperiodize_periodic,
    fundamental_domain,
    minimal_circulation,
    odometer_in_weak_neighborhood,
    periodic_in_weak_neighborhood,
    rank1_in_uniform_neighborhood,
    rokhlin_castle,
    truncation,
)
from cantordyn.docformat import parse, print_document
from cantordyn.gen import random_document, random_homeo, random_partition

from conftest import mask, subprocess_env

SWAP = PrefixMap.tree_pair(DYADIC, [((0,), (1,)), ((1,), (0,))])
DISS = PrefixMap.tree_pair(
    DYADIC, [((0,), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (1,))]
)
UNI = ProductMeasure.uniform(DYADIC)


def _depth_for(*sets):
    return max(
        (len(w) for A in sets for w in A.words), default=1
    )


def masks_equal(A, B):
    D = _depth_for(A, B)
    return mask(A, D) == mask(B, D)


def mask_subset(A, B):
    D = _depth_for(A, B)
    return mask(A, D) <= mask(B, D)


def test_criterion_01_euler_synthesis_soundness():
    rng = random.Random(101)
    t0 = time.monotonic()
    successes = witnesses = 0
    for _ in range(200):
        T = random_homeo(rng, DYADIC, depth=4)
        part = random_partition(rng, DYADIC, max_atoms=16)
        assert 2 <= len(part) <= 16
        res = odometer_in_weak_neighborhood(T, part)
        Tm = as_prefix_map(T)
        if res.ok:
            successes += 1
            for F in part:
                assert masks_equal(res.homeo.image(F), Tm.image(F))
        else:
            witnesses += 1
            F = res.witness
            assert F is not None and not F.is_empty and F != Clopen.full(DYADIC)
            TF = Tm.image(F)
            assert mask_subset(TF, F) or mask_subset(F, TF)
    assert successes > 0 and witnesses > 0
    assert time.monotonic() - t0 < 10


def test_criterion_02_moving_dichotomy_consistency():
    halves = partition_at_depth(DYADIC, 1)
    for synth in (odometer_in_weak_neighborhood, periodic_in_weak_neighborhood):
        res = synth(DISS, halves)
        assert not res.ok
        assert res.witness == Clopen.cylinder(DYADIC, (0,))
        assert synth(SWAP, halves).ok
    od = Odometer(DYADIC, 1)
    for t in range(1, 6):
        xi_t = partition_at_depth(DYADIC, t)
        assert odometer_in_weak_neighborhood(od, xi_t).ok
        assert periodic_in_weak_neighborhood(od, xi_t).ok


def _block_permutation(sig, depth, cycles):
    words = list(sig.words(depth))
    pairs = []
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            pairs.append((words[a], words[b]))
    return PrefixMap.tree_pair(sig, pairs)


def test_criterion_03_fundamental_domains():
    tri = Signature((), (3,))
    six = Signature((), (2, 3))
    fixtures = [
        (PrefixMap.identity(DYADIC), 1),
        (truncation(DYADIC, 1), 2),
        (truncation(DYADIC, 2), 4),
        (truncation(DYADIC, 3), 8),
        (truncation(tri, 1), 3),
        (truncation(six, 2), 6),
        (_block_permutation(DYADIC, 3, [[0, 1], [2, 3], [4, 5], [6, 7]]), 2),
        (_block_permutation(DYADIC, 3, [[0, 2, 4, 6], [1, 3, 5, 7]]), 4),
        (_block_permutation(DYADIC, 3, [[0, 3, 1, 5, 2, 7, 4, 6]]), 8),
        (_block_permutation(tri, 2, [[0, 1, 2], [3, 4, 5], [6, 7, 8]]), 3),
        (_block_permutation(six, 2, [[0, 2, 4, 1, 3, 5]]), 6),
    ]
    for P, p in fixtures:
        E = fundamental_domain(P, p)
        Pm = as_prefix_map(P)
        images = [Pm.power(i).image(E) for i in range(p)]
        assert is_partition(images)


def test_criterion_04_rokhlin_castles():
    skew = ProductMeasure.make(DYADIC, [], [(Fraction(1, 3), Fraction(2, 3))])
    mix = Mixture.make(DYADIC, [(Fraction(1, 2), UNI), (Fraction(1, 2), skew)])
    t0 = time.monotonic()
    for k in (1, 3):
        T = Odometer(DYADIC, k)
        Tm = as_prefix_map(T)
        for n in (2, 3, 4):
            for eps in (Fraction(1, 4), Fraction(1, 8)):
                for measures in ([UNI], [UNI, mix]):
                    c = rokhlin_castle(T, n, measures, eps)
                    assert is_partition(c.all_levels())
                    assert all(h >= n for _, h, _ in c.towers)
                    covered = Clopen.empty(DYADIC)
                    for j in range(n):
                        covered = covered | Tm.power(-j).image(c.base)
                    for mu, b in zip(measures, c.bound):
                        assert measure_of(mu, covered) == b
                        assert b > 1 - eps
    assert time.monotonic() - t0 < 5


def test_criterion_05_periodic_approximation_bound():
    for sig in (DYADIC, Signature((), (2, 3, 2, 3))):
        S = Odometer(sig, 1)
        for t in range(1, 7):
            Q = truncation(sig, t)
            assert weak_distance(S, Q) <= Fraction(2, 2**t)
            assert as_prefix_map(power(Q, sig.num_words(t))).is_identity()


def _within_atom_permutation(rng, depth):
    pairs = []
    for w in DYADIC.words(depth):
        if rng.random() < 0.5:
            pairs.append((w + (0,), w + (1,)))
            pairs.append((w + (1,), w + (0,)))
        else:
            pairs.append((w + (0,), w + (0,)))
            pairs.append((w + (1,), w + (1,)))
    return PrefixMap.tree_pair(DYADIC, pairs)


def test_criterion_06_weak_metric_p_topology_equivalence():
    rng = random.Random(103)
    # distance below the partition gap forces exact atom-image agreement
    hits = 0
    for _ in range(100):
        S = random_homeo(rng, DYADIC, depth=3)
        m = rng.randint(4, 6)
        u = tuple(0 for _ in range(m - 1))
        deep = PrefixMap.tree_pair(
            DYADIC,
            [(u + (0,), u + (1,)), (u + (1,), u + (0,))]
            + [(w, w) for w in _off_branch_words(u)],
        )
        T = compose(S, deep)
        d = rng.randint(1, 2)
        atoms = partition_at_depth(DYADIC, d)
        if weak_distance(S, T) < partition_gap(atoms):
            hits += 1
            assert in_neighborhood(T, PNeighborhood(S, tuple(atoms))).ok
    assert hits >= 20
    # agreement on a fine partition bounds the distance by twice the
    # largest diameter among the atoms and their images
    for _ in range(100):
        S = random_homeo(rng, DYADIC, depth=3)
        d = rng.randint(2, 4)
        R = _within_atom_permutation(rng, d)
        T = compose(S, R)
        atoms = partition_at_depth(DYADIC, d)
        Sm, Tm = as_prefix_map(S), as_prefix_map(T)
        delta = Fraction(0)
        for F in atoms:
            img = Sm.image(F)
            assert Tm.image(F) == img
            delta = max(delta, F.diameter(), img.diameter())
        assert weak_distance(S, T) <= 2 * delta


def _off_branch_words(u):
    out = []
    for k in range(len(u)):
        out.append(u[:k] + (1 - u[k],))
    return out


def test_criterion_07_metric_axioms():
    rng = random.Random(107)
    for _ in range(500):
        S = random_homeo(rng, DYADIC, depth=4)
        T = random_homeo(rng, DYADIC, depth=4)
        R = random_homeo(rng, DYADIC, depth=4)
        assert weak_distance(S, S) == 0
        dst = weak_distance(S, T)
        assert dst == weak_distance(T, S)
        assert (dst == 0) == (as_prefix_map(S) == as_prefix_map(T))
        assert dst <= weak_distance(S, R) + weak_distance(R, T)


def test_criterion_08_centralizer_test():
    S = Odometer(DYADIC, 1)
    for k in range(-3, 6):
        R = as_prefix_map(power(S, k))
        res = centralizer_index_sequence(R, S, 5)
        assert res["ok"]
        for i, p in zip(res["indices"], res["moduli"]):
            assert (i - k) % p == 0
    res = centralizer_index_sequence(SWAP, S, 5)
    assert not res["ok"] and res["failure_level"] <= 2
    # the failure is a genuine witness: swap does not commute with the shift
    Sm = as_prefix_map(S)
    assert compose(SWAP, Sm) != compose(Sm, SWAP)


def _circulation_oracle(n, arcs):
    """Independent minimum: baseline ones plus an optimal assignment of
    imbalance units routed along BFS shortest paths."""
    INF = float("inf")
    adj = [[] for _ in range(n)]
    for i, j in arcs:
        if i != j:
            adj[i].append(j)
    dist = [[INF] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        dq = collections.deque([s])
        while dq:
            u = dq.popleft()
            for v in adj[u]:
                if dist[s][v] == INF:
                    dist[s][v] = dist[s][u] + 1
                    dq.append(v)
    bal = [0] * n
    for i, j in arcs:
        if i != j:
            bal[j] += 1
            bal[i] -= 1
    sources, sinks = [], []
    for v in range(n):
        sources += [v] * max(bal[v], 0)
        sinks += [v] * max(-bal[v], 0)
    m = len(sinks)
    if m == 0:
        return len(arcs)
    best = [INF] * (1 << m)
    best[0] = 0
    for bm in range(1 << m):
        k = bin(bm).count("1")
        if k >= m or best[bm] == INF:
            continue
        s = sources[k]
        for t in range(m):
            if not bm >> t & 1:
                c = best[bm] + dist[s][sinks[t]]
                if c < best[bm | 1 << t]:
                    best[bm | 1 << t] = c
    return len(arcs) + best[(1 << m) - 1]


def _check_circulation(n, arcs):
    got = minimal_circulation(n, arcs)
    for v in range(n):
        assert sum(x for (i, _), x in got.items() if i == v) == sum(
            x for (_, j), x in got.items() if j == v
        )
    assert all(x >= 1 for x in got.values())
    assert sum(got.values()) == _circulation_oracle(n, arcs)


def _strong_masks(n, pairs):
    """All labeled loop-free digraph masks on n vertices, strong ones only."""
    nbits = len(pairs)
    bits = np.array([1 << b for b in range(nbits)], dtype=np.uint32)
    I = np.eye(n, dtype=np.uint8)
    out = []
    step = min(1 << 16, 1 << nbits)
    for start in range(0, 1 << nbits, step):
        m = np.arange(start, start + step, dtype=np.uint32)
        A = (m[:, None] & bits[None, :]) != 0
        M = np.zeros((len(m), n, n), dtype=np.uint8)
        for b, (i, j) in enumerate(pairs):
            M[:, i, j] = A[:, b]
        R = M | I
        for _ in range(3):
            R = ((R @ R) > 0).astype(np.uint8)
        out.append(m[R.all(axis=(1, 2))])
    return np.concatenate(out)


def test_criterion_09_circulation_optimality():
    t0 = time.monotonic()
    # exhaustive labeled loop-free digraphs, n <= 4
    labeled_counts = {1: None, 2: None, 3: None, 4: None}
    for n in (1, 2, 3, 4):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        sm = _strong_masks(n, pairs)
        labeled_counts[n] = len(sm)
        for msk in sm.tolist():
            arcs = [pairs[b] for b in range(len(pairs)) if msk >> b & 1]
            if not arcs:
                continue
            _check_circulation(n, arcs)
    assert labeled_counts[3] == 18 and labeled_counts[4] == 1606
    # n = 5: one representative per isomorphism class (the checked quantity
    # and the oracle are both invariant under relabeling)
    pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
    sm = _strong_masks(5, pairs)
    assert len(sm) == 565080
    bit_of = {p: b for b, p in enumerate(pairs)}
    canon = sm.copy()
    for perm in itertools.permutations(range(5)):
        new = np.zeros_like(sm)
        for b, (i, j) in enumerate(pairs):
            src = bit_of[(perm[i], perm[j])]
            new |= ((sm >> np.uint32(src)) & np.uint32(1)) << np.uint32(b)
        np.minimum(canon, new, out=canon)
    reps = np.unique(canon)
    assert len(reps) == 5048
    for msk in reps.tolist():
        arcs = [pairs[b] for b in range(20) if msk >> b & 1]
        _check_circulation(5, arcs)
    # self-loops are legal overlap arcs; exhaustive with loops for n <= 3
    for n in (1, 2, 3):
        cells = [(i, j) for i in range(n) for j in range(n)]
        for msk in range(1 << len(cells)):
            arcs = [cells[b] for b in range(len(cells)) if msk >> b & 1]
            if not arcs:
                continue
            loopless = [(i, j) for i, j in arcs if i != j]
            touched = sorted({v for a in arcs for v in a})
            # keep only graphs where every touched vertex can balance
            comp_ok = all(
                v in {x for a in loopless for x in a} or (v, v) in arcs
                for v in touched
            )
            sub = {v: k for k, v in enumerate(touched)}
            ren = [(sub[i], sub[j]) for i, j in loopless]
            strong = _is_strong(len(touched), ren)
            if comp_ok and strong:
                r_all = [(sub[i], sub[j]) for i, j in arcs]
                _check_circulation(len(touched), r_all)
    assert time.monotonic() - t0 < 30


def _is_strong(n, arcs):
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    radj = [[] for _ in range(n)]
    for i, j in arcs:
        adj[i].append(j)
        radj[j].append(i)
    for graph in (adj, radj):
        seen = {0}
        dq = collections.deque([0])
        while dq:
            u = dq.popleft()
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    dq.append(v)
        if len(seen) != n:
            return False
    return True


def test_criterion_10_end_to_end_rank1():
    T, _ = aperiodize_periodic(SWAP, 1)
    res = rank1_in_uniform_neighborhood(T, [UNI], Fraction(1, 2))
    assert res.ok
    # re-verify the certificate from scratch
    E = difference_set(res.homeo, T)
    v = open_diff_mass(UNI, E)
    assert [v] == res.certificate["measures_of_difference"]
    assert v < Fraction(1, 2)
    # independent mass oracle: count expanded words of the core
    if not E.core.is_empty:
        D = _depth_for(E.core)
        assert measure_of(UNI, E.core) == Fraction(len(mask(E.core, D)), 2**D)
    assert is_partition(list(res.tower.levels[0]))


CLI_FIXTURES = [
    ["dist", "id", "swap"],
    ["dist", "odometer:dyadic", "homeo tree-pair dyadic {0->1, 1->0}"],
    ["member", "swap", "neighborhood weak 5/2 (tree-pair dyadic {e->e})"],
    ["compose", "swap", "swap"],
    ["tabulate", "odometer:dyadic", "--depth", "3"],
    ["diff", "id", "swap"],
    ["periods", "swap", "--bound", "4"],
    ["fullgroup", "swap", "odometer:dyadic"],
    ["centralizer", "odometer:dyadic:3", "odometer:dyadic"],
    ["synth", "odometer", "--target", "odometer:dyadic",
     "--partition", "{0},{1}"],
    ["synth", "odometer", "--target",
     "homeo tree-pair dyadic {0->00, 10->01, 11->1}",
     "--partition", "{0},{1}"],
    ["rokhlin", "--target", "odometer:dyadic", "--n", "2",
     "--measure", "uniform", "--epsilon", "1/4"],
    ["graph-dot", "--target", "odometer:dyadic", "--partition", "{0},{1}"],
    ["measure", "uniform", "clopen dyadic {01}"],
    ["gen", "--seed", "7", "--count", "5"],
    ["dist", "id", "swap", "--format", "json"],
    ["compose", "swap", "swap", "--format", "json"],
]


def test_criterion_11_cli_determinism_and_roundtrip():
    env = subprocess_env()
    for argv in CLI_FIXTURES:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "cantordyn.cli", *argv],
                capture_output=True,
                env=env,
            )
            for _ in range(3)
        ]
        assert runs[0].returncode in (0, 2), runs[0].stderr
        assert all(r.stdout == runs[0].stdout for r in runs)
        assert all(r.returncode == runs[0].returncode for r in runs)
        if "--format" in argv:
            json.loads(runs[0].stdout)
    rng = random.Random(111)
    for _ in range(1000):
        doc = random_document(rng)
        assert parse(print_document(doc)) == doc
