"""Constructive approximation: fundamental domains, Euler-circuit odometer
and periodic synthesis, Rokhlin castles, rank-1 and periodic approximants.

Every synthesis returns a machine-checkable certificate or a structural
witness of impossibility (a proper clopen union of partition atoms mapped
into or out of itself).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import lcm

from .space import Clopen, Value, is_prefix, is_partition, partition_at_depth
from .measure import Dirac, Mixture, open_diff_mass
from .homeo import (
    PrefixMap,
    TowerSystem,
    compose_branches,
    difference_set,
    exact_period_steps,
    inf_pointwise_distance,
    invert_branches,
    refine_branch,
    refine_to,
    weak_distance,
)


# -- clopen-to-clopen canonical bijections ------------------------------------


def _equalize(A, B):
    # splitting the last of sorted prefix-free words keeps the words sorted
    a, b = list(A.words), list(B.words)
    while len(a) != len(b):
        small = a if len(a) < len(b) else b
        last = small.pop()
        small.extend(last + (d,) for d in range(A.sig.level(len(last))))
    return a, b


def canonical_clopen_homeo(A, B):
    """Deterministic prefix-exchange bijection from A onto B.

    Equalizes cylinder counts by splitting the lexicographically last
    cylinder of the smaller side, then pairs cylinders in lexicographic
    order.  Returned as a branch fragment (list of (u, v, 0) triples).
    """
    if A.is_empty or B.is_empty:
        raise ValueError("cannot map to or from the empty set")
    if A.sig != B.sig:
        raise ValueError("signature mismatch")
    a, b = _equalize(A, B)
    sig = A.sig
    branches = []
    for u, v in zip(a, b):
        if sig.shift(len(u)) != sig.shift(len(v)):
            raise ValueError(
                "tail alphabets differ between paired cylinders "
                f"{u} and {v}; no canonical pairing for this signature"
            )
        branches.append((u, v, 0))
    return branches


# -- overlap graphs and circulations ------------------------------------------


class OverlapGraph(Value):
    n: int
    atoms: list
    cells: dict  # (i, j) -> nonempty Clopen, T(F_i) & F_j
    arcs: list  # sorted (i, j) with nonempty cell
    components: list  # strong components, sorted vertex lists, by least vertex
    multiplicities: dict  # (i, j) -> m_ij >= 1, balanced; None if infeasible
    balance_feasible: bool
    # a proper union of atoms with T F inside F; None for one strong component
    witness: Clopen = None

    def to_dot(self):
        lines = ["digraph overlap {"]
        for i in range(self.n):
            lines.append(f'  v{i} [label="F{i + 1}"];')
        for i, j in self.arcs:
            m = self.multiplicities.get((i, j)) if self.multiplicities else None
            label = f' [label="{m}"]' if m is not None else ""
            lines.append(f"  v{i} -> v{j}{label};")
        lines.append("}")
        return "\n".join(lines)


def minimal_circulation(n, arcs):
    """Minimal-total integer circulation with m >= 1 on every arc.

    Successive shortest augmenting paths on the residual graph with unit
    costs; edge relaxation in lexicographic order makes the result
    deterministic.  Requires every weak component to be strongly connected.
    """
    arcs = sorted(arcs)
    flow = {a: 0 for a in arcs}
    excess = [0] * n  # indeg - outdeg under the all-ones baseline
    for i, j in arcs:
        excess[j] += 1
        excess[i] -= 1
    # vertices with positive excess need extra outflow
    while True:
        sources = [v for v in range(n) if excess[v] > 0]
        if not sources:
            break
        s = sources[0]
        # Bellman-Ford on the residual graph from s
        INF = float("inf")
        dist = [INF] * n
        prev = [None] * n
        dist[s] = 0
        edges = [(a, a[0], a[1], 1) for a in arcs]  # forward, cost 1
        edges += [(a, a[1], a[0], -1) for a in arcs if flow[a] > 0]  # residual reverse
        for _ in range(n):
            changed = False
            for a, u, v, c in edges:
                if dist[u] + c < dist[v]:
                    dist[v] = dist[u] + c
                    prev[v] = (u, a, c)
                    changed = True
            if not changed:
                break
        sinks = [v for v in range(n) if excess[v] < 0 and dist[v] < INF]
        if not sinks:
            return None
        t = min(sinks, key=lambda v: (dist[v], v))
        v = t
        while v != s:
            v, a, c = prev[v]
            flow[a] += c
        excess[s] -= 1
        excess[t] += 1
    return {a: 1 + flow[a] for a in arcs}


def _reach_sets(n, arcs):
    """The set of vertices each vertex reaches, itself included."""
    succ = [[] for _ in range(n)]
    for i, j in arcs:
        succ[i].append(j)
    reach = []
    for v in range(n):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return reach


def overlap_graph(T, partition):
    """Arc structure T(F_i) & F_j with minimal balanced multiplicities.

    Every answer is one of mutual reachability, read from the reach sets:
    the strong component of v is what v reaches and what reaches v, and the
    witness is the first component, by least vertex, that is its own reach
    set (no arc leaves it) and is not the whole graph.
    """
    atoms = list(partition)
    if not is_partition(atoms):
        raise ValueError("input sets do not partition the space")
    n = len(atoms)
    cells = {}
    for i in range(n):
        img = T.image(atoms[i])
        for j in range(n):
            cell = img & atoms[j]
            if not cell.is_empty:
                cells[(i, j)] = cell
    arcs = sorted(cells)
    reach = _reach_sets(n, arcs)
    components, witness = [], None
    for v in range(n):
        comp = [u for u in sorted(reach[v]) if v in reach[u]]
        if comp[0] == v:
            components.append(comp)
            if witness is None and len(comp) == len(reach[v]) < n:
                words = [w for u in comp for w in atoms[u].words]
                witness = Clopen.make(atoms[0].sig, words)
    # balanced multiplicities exist iff every weak component is strongly
    # connected, that is, iff j reaches i for every arc (i, j); augmenting
    # paths then never leave a component, so one circulation serves them all
    feasible = all(i in reach[j] for i, j in arcs)
    return OverlapGraph(
        n=n,
        atoms=atoms,
        cells=cells,
        arcs=arcs,
        components=components,
        multiplicities=minimal_circulation(n, arcs) if feasible else None,
        balance_feasible=feasible,
        witness=witness,
    )


def euler_circuit(vertices, arc_multiset, start):
    """Deterministic Hierholzer circuit; smallest unused arc first."""
    out = {v: [] for v in vertices}
    # in sorted arc order each out-list is sorted as it is built
    for (i, j), m in sorted(arc_multiset.items()):
        out[i].extend((j, k) for k in range(m))
    ptr = {v: 0 for v in vertices}
    stack = [start]
    arc_stack = []
    circuit = []
    while stack:
        v = stack[-1]
        if ptr[v] < len(out[v]):
            j, k = out[v][ptr[v]]
            ptr[v] += 1
            stack.append(j)
            arc_stack.append((v, j, k))
        else:
            stack.pop()
            if arc_stack:
                circuit.append(arc_stack.pop())
    circuit.reverse()
    return circuit


class SynthesisResult(Value):
    ok: bool
    homeo: object = None  # exact PrefixMap realization, when one is built
    tower: TowerSystem = None
    pieces: list = None
    certificate: dict = None
    witness: Clopen = None


def _circuit_pieces(g, comp=None):
    """Pieces along the Euler circuit, one clopen set per traversed arc."""
    arcs = g.arcs if comp is None else [a for a in g.arcs if a[0] in comp]
    mult = {a: g.multiplicities[a] for a in arcs}
    vertices = sorted({v for a in arcs for v in a})
    splits = {a: g.cells[a].split(mult[a]) for a in arcs}
    circuit = euler_circuit(vertices, mult, vertices[0])
    return [splits[(i, j)][k] for i, j, k in circuit]


def _glue_cycle(sig, pieces, close_exactly=False):
    """Branch fragments mapping piece l onto piece l+1 around the cycle.

    With close_exactly, the last map is the inverse of the composed path, so
    the glued map has finite order.
    """
    path = [(u, u, 0) for u in pieces[0].words]
    frags = []
    for a, b in zip(pieces, pieces[1:]):
        f = canonical_clopen_homeo(a, b)
        frags.extend(f)
        path = compose_branches(sig, f, path)
    if close_exactly:
        frags.extend(invert_branches(path))
    else:
        frags.extend(canonical_clopen_homeo(pieces[-1], pieces[0]))
    return frags


def odometer_in_weak_neighborhood(T, partition):
    """Odometer-structured S with S F_i = T F_i, or a closed-set witness."""
    g = overlap_graph(T, partition)
    if len(g.components) != 1:
        return SynthesisResult(ok=False, witness=g.witness)
    pieces = _circuit_pieces(g)
    sig = partition[0].sig
    S = PrefixMap.make(sig, _glue_cycle(sig, pieces))
    tower = TowerSystem.from_cycle(pieces)
    cert = {
        "set_images_match": all(S.image(F) == T.image(F) for F in partition),
        "cycle_length": len(pieces),
    }
    return SynthesisResult(
        ok=True, homeo=S, tower=tower, pieces=pieces, certificate=cert
    )


def periodic_in_weak_neighborhood(T, partition):
    """Pointwise periodic P with P F_i = T F_i, or a closed-set witness."""
    g = overlap_graph(T, partition)
    if not g.balance_feasible:
        return SynthesisResult(ok=False, witness=g.witness)
    sig = partition[0].sig
    all_pieces = [_circuit_pieces(g, set(comp)) for comp in g.components]
    branches = []
    for pieces in all_pieces:
        branches += _glue_cycle(sig, pieces, close_exactly=True)
    P = PrefixMap.make(sig, branches)
    cert = {
        "set_images_match": all(P.image(F) == T.image(F) for F in partition),
        "order": lcm(*map(len, all_pieces)),
    }
    return SynthesisResult(ok=True, homeo=P, pieces=all_pieces, certificate=cert)


def extend_cyclic_partition_to_odometer(cycle, levels=2):
    """Tower system over a cyclic clopen partition, with canonical refinement."""
    if not is_partition(list(cycle)):
        raise ValueError("cycle is not a clopen partition of the space")
    return TowerSystem.from_cycle(list(cycle)).ensure_levels(levels)


# -- fundamental domains and aperiodization ------------------------------------


def _positive(epsilon):
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def _iterates(M, A, k):
    """A, M A, ..., M^(k-1) A, one image per step."""
    for i in range(k):
        if i:
            A = M.image(A)
        yield A


def orbit_of(P, F, p):
    """F | P F | ... | P^(p-1) F."""
    iterates = _iterates(P, F, p)
    out = next(iterates, Clopen.empty(F.sig))
    for cur in iterates:
        out = out | cur
    return out


def fundamental_domain(P, p):
    """Clopen E with (E, P E, ..., P^{p-1} E) an exact partition."""
    if p < 1:
        raise ValueError(f"period must be positive, got {p}")
    # square and multiply: a wrong period is refused after O(log p) compositions
    if not P.power(p).is_identity():
        raise ValueError(f"map is not exactly {p}-periodic")
    if p == 1:
        return Clopen.full(P.sig)
    # the least q with a fixed point of P^q is the exact period of that point;
    # c is the least displacement inf d(x, P^q x) over q < p
    ident = Pq = PrefixMap.identity(P.sig)
    c = 1
    for q in range(1, p):
        Pq = P.after(Pq)
        d = inf_pointwise_distance(Pq, ident)
        if d == 0:
            raise ValueError(f"points of period {q} < {p} present")
        c = min(c, d)
    depth = 0
    while Fraction(1, 2**depth) > c / 2:
        depth += 1
    atoms = partition_at_depth(P.sig, depth)
    E = atoms[0]
    for A in atoms[1:]:
        E = E | (A - orbit_of(P, E, p))
    if not is_partition(list(_iterates(P, E, p))):
        raise RuntimeError("greedy fundamental domain failed the partition check")
    return E


# largest order aperiodize_periodic tries when no period is given, and most
# cells its fundamental domain may be split into
APERIODIZE_MAX_ORDER = 64
APERIODIZE_MAX_CELLS = 1 << 16


def aperiodize_periodic(P, epsilon, p=None):
    """Aperiodic T close to the p-periodic P in the weak metric.

    Replaces the trivial first-return of the fundamental domain by digit-tail
    adding machines on small cells, so the return map has no finite orbits.
    """
    epsilon = _positive(epsilon)
    if p is None:
        cur = PrefixMap.identity(P.sig)
        for q in range(1, APERIODIZE_MAX_ORDER + 1):
            cur = P.after(cur)
            if cur.is_identity():
                p = q
                break
        else:
            raise ValueError("map is not periodic within the order bound")
    E = fundamental_domain(P, p)
    # cells of E whose whole P-orbit consists of sets of diameter < eps/2:
    # each cell is tested once and a wide one split into its children, which
    # gives the same cells in any order
    cells, todo = [], list(E.words)
    half = epsilon / 2
    while todo:
        w = todo.pop()
        images = _iterates(P, Clopen(P.sig, (w,)), p)
        if all(img.diameter() < half for img in images):
            cells.append(w)
            continue
        todo.extend(w + (d,) for d in range(P.sig.level(len(w))))
        if len(cells) + len(todo) > APERIODIZE_MAX_CELLS:
            raise ValueError(
                f"aperiodization needs more than {APERIODIZE_MAX_CELLS} cells"
            )
    sigma = [(w, w, 1) for w in sorted(cells)]
    # P^p is the identity, so P^(p-1) is the inverse
    top = P.inverse().image(E)
    branches = refine_to(P.sig, P.branches, top.complement().words)
    on_top = refine_to(P.sig, P.branches, top.words)
    branches += compose_branches(P.sig, sigma, on_top)
    T = PrefixMap.make(P.sig, branches)
    dw = weak_distance(T, P)
    if not dw < epsilon:
        raise RuntimeError("certificate failed: weak distance not below epsilon")
    return T, {"weak_distance": dw, "period": p, "fundamental_domain": E}


# -- Rokhlin castles and rank-1 approximants ------------------------------------

# deepest cylinder cover the castle search tries
CASTLE_DEPTH_CAP = 12


class Castle(Value):
    towers: list  # of (base Clopen, height int, levels list of Clopen)
    base: Clopen  # marked base set B, the union of tower bases
    bound: list = None  # per measure, mu(union_{j<n} T^-j B)

    def all_levels(self):
        return [lvl for _, _, levels in self.towers for lvl in levels]


def _first_return_towers(Tm, Tinv, B, cap):
    """Towers over B decomposed by first return time, exact.

    A base separated by n returns within 2n - 1 steps, because its images
    T^j(B), |j| < n, cover the space; the cap only guards against a search
    without end.
    """
    towers = []
    remaining = back = B  # back is T^-h(B)
    h = 0
    while not remaining.is_empty:
        h += 1
        if h > cap:
            raise RuntimeError(f"base points still unreturned after {cap} steps")
        back = Tinv.image(back)
        ret = remaining & back
        if not ret.is_empty:
            towers.append((ret, h, list(_iterates(Tm, ret, h))))
            remaining = remaining - ret
    return towers


def _cycle_strands(cycles, sep, pull):
    """One strand per word of the base separated by sep, read off the
    depth-d cycles of T (PrefixMap.cycles); None when a cycle is shorter
    than sep.  The base takes each word, in lexicographic order, whose cycle
    holds no base word fewer than sep places from it (T^j moves a cylinder
    j places on).  A base word's strand is the slice of its cycle from pull
    places before it up to the next base word, one word tuple per place."""
    if min(map(len, cycles)) < sep:
        return None
    strands = []
    for cycle in cycles:
        m = len(cycle)
        starts, blocked = [], set()
        for i in sorted(range(m), key=cycle.__getitem__):
            if i not in blocked:
                starts.append(i)
                blocked.update((i + j) % m for j in range(1 - sep, sep))
        starts.sort()
        for i, j in zip(starts, starts[1:] + [starts[0] + m]):
            strands.append([(cycle[k % m],) for k in range(i - pull, j)])
    return strands


def _tower_strands(powers, Tinv, sep, depth, pull):
    """One strand per first-return tower over the greedy clopen base of
    depth-d cylinders separated by sep; None when some depth-d cylinder
    meets its image under T^j, 0 < j < sep.  powers(j) is T^j.  A strand
    is the word tuples of T^-pull .. T^-1 of the tower's base, then of its
    levels 0 .. h-1.  The pullbacks are images but for the last tower's: as
    pull <= h, T^-j(B) is the union of the levels h - j, and the last
    tower's pullbacks are what the other towers leave of it."""
    Tm, sig = powers(1), Tinv.sig
    # powers(j) is composed when first asked for, so a depth without a cover
    # composes only as far as its first intersecting cylinder
    for w in sig.words(depth):
        for j in range(1, sep):
            image = refine_to(sig, powers(j).branches, [w])
            if any(is_prefix(v, w) or is_prefix(w, v) for _, v, _ in image):
                return None
    B = blocked = Clopen.empty(sig)
    # blocked is the union of T^j(B), 0 < |j| < sep; a homeomorphism maps a
    # union to the union of the images, so only the images of each new piece
    # are added
    for w in sig.words(depth):
        add = Clopen(sig, (w,)) - blocked - B
        if not add.is_empty:
            B = B | add
            for j in chain(range(1, sep), range(-1, -sep, -1)):
                blocked = blocked | powers(j).image(add)
    towers = _first_return_towers(Tm, Tinv, B, 2 * sep)
    strands = [
        list(_iterates(Tinv, b, pull + 1))[:0:-1] + levels
        for b, _, levels in towers[:-1]
    ]
    last = towers[-1][2]
    for j in range(1, pull + 1):
        back = Clopen.make(sig, chain(*(lv[h - j].words for _, h, lv in towers)))
        rest = Clopen.make(sig, chain(*(s[pull - j].words for s in strands)))
        last = [back - rest] + last
    return [[A.words for A in s] for s in strands + [last]]


def _best_windows(strands, candidates, spans, n, measures):
    """Bounds and windows of the first candidate with the largest least
    bound.  A candidate's windows (s, a, h), levels a .. a+h-1 of strand s,
    are blocks that partition the space, every top going into a block base.
    A point on level l >= 1 next meets the base h - l steps on, so the bound
    mu(union of T^-j B, j < n) is mu(space) minus the masses of levels
    1 .. h-n: per measure, integer prefix sums over one common denominator
    and one Fraction.  Only the index ranges spans[s] that some window
    removes are measured; the other elements count 0.
    """
    sig = measures[0].sig
    sums = []
    for mu in measures:
        ratios = [
            [(i, mu.clopen_ratio(Clopen(sig, st[i]))) for r in span for i in r]
            for st, span in zip(strands, spans)
        ]
        num, den = mu.clopen_ratio(Clopen.full(sig))
        D = lcm(den, *{b for row in ratios for _, (_, b) in row})
        runs = []
        for st, row in zip(strands, ratios):
            mass = [0] * (len(st) + 1)
            for i, (a, b) in row:
                mass[i + 1] = a * (D // b)
            runs.append(list(accumulate(mass)))
        sums.append((num * (D // den), D, runs))
    best = None
    for ws in candidates:
        bound = [
            Fraction(full - sum(P[s][a + h - n + 1] - P[s][a + 1] for s, a, h in ws), D)
            for full, D, P in sums
        ]
        if best is None or min(bound) > min(best[0]):
            best = bound, ws
    return best


def _castle(sig, strands, bound, windows):
    """The castle of the windows: blocks of one height form one tower, and
    the towers go by increasing height, as first return times do."""
    towers = []
    for h in sorted({h for _, _, h in windows}):
        same = zip(*(strands[s][a : a + h] for s, a, z in windows if z == h))
        levels = [Clopen.make(sig, chain(*lvls)) for lvls in same]
        towers.append((levels[0], h, levels))
    base = Clopen.make(sig, chain(*(b.words for b, _, _ in towers)))
    return Castle(towers=towers, base=base, bound=bound)


def _shifted_top_castle(strands, n, measures):
    """Bounds and windows of the best castle over T^-K of the tops, K in
    [0, n), the deepest pullback winning ties.  The tops make up T^-1(B0),
    so T^-K of them is T^-(K+1)(B0), whose return towers are those of B0
    pulled back K+1 steps: on each strand (pull n) the window of its height
    h from n-K-1.  These windows remove levels 1 .. h-1, none when h = n.
    """
    heights = [len(strand) - n for strand in strands]
    spans = [[range(1, h)] if h > n else [] for h in heights]
    candidates = (
        [(s, n - K - 1, h) for s, h in enumerate(heights)] for K in reversed(range(n))
    )
    return _best_windows(strands, candidates, spans, n, measures)


def _sliced_castle(strands, n, measures):
    """Bounds and windows of the best cut of tall return towers (strands of
    pull 0) into height-n blocks, block b* absorbing the height remainder r,
    at the first b* with the largest bound.  The leftovers of different b*
    are disjoint, so of more than (number of measures)/epsilon one leaves
    less than epsilon uncovered.  Only the r levels after b*'s base go.
    """
    heights = [len(strand) for strand in strands]

    def windows(bstar):
        out = []
        for s, h in enumerate(heights):
            cuts = [b * n + (h % n if b > bstar else 0) for b in range(h // n)] + [h]
            out += [(s, a, z - a) for a, z in zip(cuts, cuts[1:])]
        return out

    bstars = range(min(h // n for h in heights))
    spans = [[range(b * n + 1, b * n + 1 + h % n) for b in bstars] for h in heights]
    return _best_windows(strands, map(windows, bstars), spans, n, measures)


def _refuse_periods(Tm, bound):
    """Raise ValueError naming the periodic part or point of the least
    period q <= bound, a clopen part before a point of the same period.  No
    power beyond T^q is composed."""
    for q, _, part, points in exact_period_steps(Tm, bound):
        if not part.is_empty:
            raise ValueError(f"periodic points of period {q} found: {part}")
        if points:
            raise ValueError(f"periodic point of period {q} found: {points[0]}")


def rokhlin_castle(T, n, measures, epsilon):
    """Clopen castle of height >= n towers with the marked-base measure bound.

    Searches cover depths upward.  At each depth a first pass shifts the
    tops of the return towers over a base separated by exactly n; if its
    bound falls short, a second pass separates by a multiple of n large
    enough that slicing into height-n blocks provably leaves less than
    epsilon uncovered for some absorber position.  A candidate is a list of
    windows of strands, bounded by integer prefix sums; only the accepted
    castle's levels become clopen sets.  Each depth forks once: when T
    permutes the depth-d cylinders (PrefixMap.cycles), the strands are
    slices of its cycles (_cycle_strands) and no power or image of T is
    made; otherwise they are first-return towers (_tower_strands) over
    powers of T from one list per search, each composed once, from the one
    before it, when first asked for.  Fails with diagnostics at depth
    CASTLE_DEPTH_CAP.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    sig = T.sig
    epsilon = _positive(epsilon)
    _refuse_periods(T, n)
    if any(mu.sig != sig for mu in measures):
        raise ValueError("signature mismatch")
    sep = max(2, int(len(measures) / epsilon) + 1) * n
    Tinv = T.inverse()
    made = {1: [T], -1: [Tinv]}  # made[1][k] is T^(k+1), made[-1][k] T^-(k+1)

    def powers(j):
        steps = made[1 if j > 0 else -1]
        while len(steps) < abs(j):
            steps.append(steps[0].after(steps[-1]))
        return steps[abs(j) - 1]

    last_diag = None
    for depth in range(1, CASTLE_DEPTH_CAP + 1):
        cycles = T.cycles(depth)
        if cycles is None:
            strands_of = lambda s, pull: _tower_strands(powers, Tinv, s, depth, pull)
        else:
            strands_of = lambda s, pull: _cycle_strands(cycles, s, pull)
        strands = strands_of(n, n)
        if strands is None:
            last_diag = f"no separated cover at depth {depth}"
            continue
        bound, windows = _shifted_top_castle(strands, n, measures)
        best = min(bound)
        if best <= 1 - epsilon and (sliced := strands_of(sep, 0)) is not None:
            strands = sliced
            bound, windows = _sliced_castle(strands, n, measures)
            best = max(best, min(bound))
        if min(bound) > 1 - epsilon:
            castle = _castle(sig, strands, bound, windows)
            _verify_castle(castle, n)
            return castle
        last_diag = f"best bound {best} at depth {depth} not above {1 - epsilon}"
    raise RuntimeError(f"castle search failed: {last_diag}")


def _verify_castle(castle, n):
    if not is_partition(castle.all_levels()):
        raise RuntimeError("castle levels do not partition the space")
    if any(h < n for _, h, _ in castle.towers):
        raise RuntimeError("castle tower below requested height")


def rank1_in_uniform_neighborhood(T, measures, epsilon):
    """Single-cycle approximant agreeing with T off the tower tops.

    The castle height is raised until the exact measure of the difference
    set falls below epsilon; the certificate is re-verified from the
    difference set itself, not from the construction.
    """
    epsilon = _positive(epsilon)
    # with each castle's own refusal of periods up to n, periods up to
    # max(8, n) are refused at every height
    _refuse_periods(T, 8)
    n = 2
    last = None
    while n <= 4096:
        castle = rokhlin_castle(T, n, measures, Fraction(1, 2))
        towers = castle.towers
        sig = T.sig
        # off the tops, S is T
        tops = Clopen.make(sig, [w for *_, lvls in towers for w in lvls[-1].words])
        branches = refine_to(sig, T.branches, tops.complement().words)
        q = len(towers)
        for idx, (base, h, levels) in enumerate(towers):
            nxt_base = towers[(idx + 1) % q][0]
            if T.image(levels[-1]) == nxt_base:
                # T already sends this top onto the next base; keep it
                branches += refine_to(sig, T.branches, levels[-1].words)
            else:
                branches += canonical_clopen_homeo(levels[-1], nxt_base)
        S = PrefixMap.make(sig, branches)
        E = difference_set(S, T)
        values = [open_diff_mass(mu, E) for mu in measures]
        if all(v < epsilon for v in values):
            tower = TowerSystem.from_cycle(castle.all_levels())
            cert = {
                "difference_set": E,
                "measures_of_difference": values,
                "castle_heights": [h for _, h, _ in towers],
            }
            return SynthesisResult(ok=True, homeo=S, tower=tower, certificate=cert)
        last = values
        n *= 2
    raise RuntimeError(f"rank-1 search exhausted height doubling; last {last}")


# -- periodic approximation of odometers ----------------------------------------


def truncation(sig, t, k=1):
    """The depth-t cyclic prefix exchange approximating the adding machine
    shifted by k.

    The odometer branch is refined only where a carry still runs, and the
    carry is dropped at depth t, so the cost grows with t, not with the
    number of depth-t words.
    """
    branches, running = [], [((), (), k)]
    while running:
        br = u, v, c = running.pop()
        if not c:
            branches.append(br)
        elif len(u) == t:
            branches.append((u, v, 0))
        else:
            lam = sig.level(len(u))
            running += [refine_branch(sig, br, u + (d,)) for d in range(lam)]
    return PrefixMap.make(sig, branches)


class PeriodicApproximant(Value):
    ok: bool
    Q: PrefixMap = None
    depth: int = None
    certificate: dict = None
    obstruction: object = None


# deepest truncation periodic_approx_odometer tries
APPROX_DEPTH_CAP = 40


def periodic_approx_odometer(S, mode, epsilon, measures=None):
    """Periodic Q near the odometer S: weak mode bounds d_w, uniform mode
    bounds the measure of the difference set.

    Uniform mode fails honestly, reporting the obstructing atom, when a
    point mass rides the carry cylinder at every depth.
    """
    if S.shift is None:
        raise TypeError("periodic approximation targets an odometer")
    epsilon = _positive(epsilon)
    sig = S.sig
    if mode == "weak":
        t = 1
        while Fraction(2, 2**t) >= epsilon:
            t += 1
            if t > APPROX_DEPTH_CAP:
                raise RuntimeError("depth cap exceeded in weak mode")
        Qs = truncation(sig, t, S.shift)
        dw = weak_distance(S, Qs)
        if not dw < epsilon:
            raise RuntimeError("certificate failed: weak distance not below epsilon")
        return PeriodicApproximant(
            ok=True,
            Q=Qs,
            depth=t,
            certificate={"weak_distance": dw, "power_identity": sig.num_words(t)},
        )
    if mode == "uniform":
        if not measures:
            raise ValueError("uniform mode needs measures")
        for t in range(1, APPROX_DEPTH_CAP + 1):
            Qs = truncation(sig, t, S.shift)
            E = difference_set(Qs, S)
            values = [open_diff_mass(mu, E) for mu in measures]
            if all(v < epsilon for v in values):
                return PeriodicApproximant(
                    ok=True,
                    Q=Qs,
                    depth=t,
                    certificate={
                        "measures_of_difference": values,
                        "power_identity": sig.num_words(t),
                    },
                )
        # locate the obstructing atom in the difference set at the cap
        atom = _find_atom_in(measures, E.core)
        return PeriodicApproximant(
            ok=False,
            depth=APPROX_DEPTH_CAP,
            obstruction=atom,
            certificate={"difference_core": E.core},
        )
    raise ValueError("mode must be weak or uniform")


def _find_atom_in(measures, core):
    """The first Dirac atom in core, the components of a mixture searched
    where it stands in the list."""
    for mu in measures:
        if isinstance(mu, Dirac) and mu.atom.in_clopen(core):
            return mu.atom
        if isinstance(mu, Mixture):
            atom = _find_atom_in([m for _, m in mu.components], core)
            if atom is not None:
                return atom
    return None
