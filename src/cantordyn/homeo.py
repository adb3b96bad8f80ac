"""Homeomorphisms of the Cantor model with exact cylinder-level evaluation.

The workhorse representation is PrefixMap: a finite list of branches
(u, v, c) acting by  u . y  |->  v . (y + c),  where y + c is adding-machine
addition on the digit tail; Signature.add_to_word carries it through the
digits of a refined word.  Pure prefix-exchange (tree-pair) maps are the
c = 0 case and the adding machine itself is the single branch (e, e, k).
The class is closed under composition and inversion, so group words in
tree-pair maps and odometers always resolve to an exact PrefixMap.

compose_branches and invert_branches are the one branch algebra: they
compose and invert full maps and partial fragments alike, and
PrefixMap.after and inverse are built on them.  refine_to is the one
restriction walk: images, restricted fragments, the common refinement of two
maps and the centralizer test all read it.  Every PrefixMap that make,
after, inverse, power, identity or Odometer returns is canonical as built
(no complete sibling family of branches is left unmerged), so equality and
hashing are those of the (sig, branches) tuple, as for Clopen.

The odometer is no type of its own: Odometer(sig, k) builds the one branch
(e, e, k), and Odometer(sig, 0) is the identity.  A map's shift is k exactly
when it is that one branch with k != 0, and None otherwise; the odometers
are the maps with a shift, whatever way they were built.

_cells is the one comparison of two maps: on each cylinder of their common
refinement they agree, stay 2^-k apart at every point, or meet at exactly
one point.  The pointwise distances, difference sets, fixed points, periods
and full-group pieces all read it.

A map is synchronous when every branch has |u| = |v|; odometers and
tree pairs that permute the cylinders of one depth are.  Once d reaches the
domain depth, a synchronous map permutes the depth-d cylinders, and
PrefixMap.cycles(d) returns the cycles of that permutation, or None for a
map that is not synchronous.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .space import (
    Clopen,
    Point,
    Signature,
    Value,
    canonical_words,
    is_prefix,
    lcp_len,
    point_text,
    point_with_prefix,
    word_text,
    wordset_text,
)


def point_add(x, k):
    """x + k in the adic group; exact on eventually periodic streams."""
    if k == 0:
        return x
    sig = x.sig
    out = []
    carry = k
    pos = 0
    seen = {}
    head_anchor = max(len(x.head), len(sig.preperiod))
    while True:
        if pos >= head_anchor:
            key = (
                (pos - len(x.head)) % len(x.cycle),
                (pos - len(sig.preperiod)) % len(sig.period),
                carry,
            )
            if key in seen:
                start = seen[key]
                return Point.make(sig, tuple(out[:start]), tuple(out[start:]))
            seen[key] = pos
        lam = sig.level(pos)
        d = x.digit(pos) + carry
        out.append(d % lam)
        carry = d // lam
        pos += 1


def _sstar(sig, depth, c):
    """Largest s with (lambda_depth ... lambda_{depth+s-1}) | c, for c != 0."""
    s = 0
    n = 1
    while True:
        n *= sig.level(depth + s)
        if c % n:
            return s
        s += 1


class PrefixMap(Value):
    """Homeomorphism given by branches u . y |-> v . (y + c)."""

    sig: Signature
    branches: tuple  # of (u, v, c)

    @staticmethod
    def make(sig, branches):
        """Validated canonical map; the constructor for outside branch lists."""
        brs = tuple(sorted((tuple(u), tuple(v), int(c)) for u, v, c in branches))
        m = PrefixMap(sig, brs)
        m._validate()
        return m.canonical()

    @staticmethod
    def identity(sig):
        return PrefixMap(sig, (((), (), 0),))

    @staticmethod
    def tree_pair(sig, pairs):
        """Pure prefix-exchange map from (domain word, range word) pairs."""
        return PrefixMap.make(sig, [(u, v, 0) for u, v in pairs])

    def _validate(self):
        sig = self.sig
        dom = [u for u, _, _ in self.branches]
        rng = sorted(v for _, v, _ in self.branches)
        for ws, name in ((dom, "domain"), (rng, "range")):
            # in a sorted list a word and its extensions are neighbours
            for a, b in zip(ws, ws[1:]):
                if b[: len(a)] == a:
                    raise ValueError(f"{name} words overlap: {a}, {b}")
            if canonical_words(sig, ws) != ((),):
                raise ValueError(f"{name} words do not cover the space")
        for u, v, c in self.branches:
            # over dyadic, {0, 1, 2} passes the cover check: 2 lies under e
            if not sig.valid_word(u) or not sig.valid_word(v):
                raise ValueError("branch word digits out of range")
            if not sig.same_tail(len(u), len(v)):
                raise ValueError(f"tail alphabets differ between {u} and {v}")

    @property
    def shift(self):
        """k when this is the adding machine x |-> x + k, k != 0, else None."""
        if len(self.branches) == 1 and self.branches[0][2]:
            return self.branches[0][2]
        return None

    @property
    def is_tree_pair(self):
        return all(c == 0 for _, _, c in self.branches)

    def canonical(self):
        """The same map with every complete sibling family merged.

        One stack pass over the branches in domain order, as in
        space._collapse: the last sibling pu+(lam-1,) of a family closes it
        when the top of the stack holds the refinements of one parent branch,
        and the merged parent may close the family above it.
        """
        sig = self.sig
        out = []
        for br in sorted(self.branches):
            while True:
                u = br[0]
                if not u:
                    break
                lam = sig.level(len(u) - 1)
                k = len(out) - lam + 1
                if u[-1] != lam - 1 or k < 0:
                    break
                family = out[k:] + [br]
                pu = u[:-1]
                u0, v0, c0 = family[0]
                if u0 != pu + (0,) or not v0:
                    break
                pv = v0[:-1]
                if not sig.same_tail(len(pu), len(pv)):
                    break
                parent = (pu, pv, c0 * lam + v0[-1])
                refined = [refine_branch(sig, parent, pu + (d,)) for d in range(lam)]
                if family != refined:
                    break
                del out[k:]
                br = parent
            out.append(br)
        return PrefixMap(sig, tuple(out))

    # -- branch refinement ------------------------------------------------

    def max_domain_depth(self):
        return max((len(u) for u, _, _ in self.branches), default=0)

    def table(self, depth):
        """Branches refined so every domain word has the given depth.

        At or below the domain depth each word lies under exactly one branch.
        The domain words are sorted and partition the space, so the depth-d
        extensions of each branch in turn are the depth-d words in order.
        """
        if depth < self.max_domain_depth():
            raise ValueError("depth above an existing branch")
        sig = self.sig
        return [
            refine_branch(sig, br, w)
            for br in self.branches
            for w in sig.words(depth, br[0])
        ]

    def cycles(self, depth):
        """Cycles of the permutation of the depth-d cylinders, as word lists.

        Each cycle starts at its least word, w_{i+1} is the image word of
        w_i, and the cycles come in the order of their first words.  None
        below the domain depth, and None when some refined branch changes
        word length, which means the map is not synchronous.
        """
        if depth < self.max_domain_depth():
            return None
        succ = {}
        for u, v, _ in self.table(depth):
            if len(v) != depth:
                return None
            succ[u] = v
        out = []
        for w in self.sig.words(depth):
            if w in succ:
                cycle = []
                while w in succ:
                    cycle.append(w)
                    w = succ.pop(w)
                out.append(cycle)
        return out

    # -- action ------------------------------------------------------------

    def image(self, A):
        if A.sig != self.sig:
            raise ValueError("signature mismatch")
        pieces = refine_to(self.sig, self.branches, A.words)
        return Clopen.make(A.sig, [v for _, v, _ in pieces])

    def preimage(self, A):
        return self.inverse().image(A)

    def apply(self, x):
        if x.sig != self.sig:
            raise ValueError("signature mismatch")
        for u, v, c in self.branches:
            if x.digits(len(u)) == u:
                tail = point_add(x.drop(len(u)), c)
                return point_with_prefix(self.sig, v, tail)
        raise RuntimeError("branches do not cover the point")

    # -- group structure ----------------------------------------------------

    def inverse(self):
        return PrefixMap(self.sig, tuple(invert_branches(self.branches))).canonical()

    def after(self, other):
        """self o other (apply other first)."""
        if self.sig != other.sig:
            raise ValueError("signature mismatch")
        return PrefixMap(
            self.sig, tuple(compose_branches(self.sig, self.branches, other.branches))
        ).canonical()

    def power(self, n):
        if n == 0:
            return PrefixMap.identity(self.sig)
        # square and multiply: fewer than 2 * bit_length(|n|) compositions
        base = self if n > 0 else self.inverse()
        n = abs(n)
        out = None
        while True:
            if n & 1:
                out = base if out is None else base.after(out)
            n >>= 1
            if not n:
                return out
            base = base.after(base)

    def is_identity(self):
        return self.branches == (((), (), 0),)

    def __repr__(self):
        return f"PrefixMap{{{branches_text(self.sig, self.branches)}}}"


def branches_text(sig, branches):
    """Branches u->v+c in document notation, comma-separated; +0 is left out."""
    return ", ".join(
        f"{word_text(sig, u)}->{word_text(sig, v)}{f'{c:+d}' if c else ''}"
        for u, v, c in branches
    )


def refine_branch(sig, br, w):
    """Restrict branch (u, v, c) to the deeper domain word w >= u."""
    u, v, c = br
    r2, k = sig.add_to_word(len(u), w[len(u) :], c)
    return (w, v + r2, k)


def compose_branches(sig, second, first):
    """Branches of second o first; either list may be a partial fragment."""
    out = []
    for u1, v1, c1 in first:
        for u2, v2, c2 in second:
            if is_prefix(u2, v1):
                # the whole branch lands inside [u2]; with prefix-free
                # domains no other u2 meets v1
                r2, k = sig.add_to_word(len(u2), v1[len(u2) :], c2)
                out.append((u1, v2 + r2, c1 + k))
                break
            if is_prefix(v1, u2):
                # pull [u2] back through the carry c1
                rt, b = sig.add_to_word(len(v1), u2[len(v1) :], -c1)
                out.append((u1 + rt, v2, c2 - b))
    return out


def invert_branches(branches):
    """Branches of the inverse of a map or fragment."""
    return [(v, u, -c) for u, v, c in branches]


def refine_to(sig, branches, words):
    """The branches of a fragment restricted to the cylinders of words.

    The branches are sorted with prefix-free domains, and the words are
    sorted and prefix-free.  One merge walk, as in space._intersection: a
    word under a branch gives the branch refined to it, a branch under a
    word is kept as it is, and of two incomparable words the smaller is
    passed.  The cost is the branches plus the words.
    """
    out = []
    i = j = 0
    while i < len(branches) and j < len(words):
        br, w = branches[i], words[j]
        u = br[0]
        if w[: len(u)] == u:
            out.append(refine_branch(sig, br, w))
            j += 1
        elif u[: len(w)] == w:
            out.append(br)
            i += 1
        elif u < w:
            i += 1
        else:
            j += 1
    return out


def common_refinement(S, T):
    """Branch pairs of S and T over a common domain cylinder partition.

    The cells are the longer word of each comparable pair of domain words,
    so there are fewer of them than branches of S and T together.  Returns
    a list of (w, (v1, c1), (v2, c2)).
    """
    if S.sig != T.sig:
        raise ValueError("signature mismatch")
    s_cells = refine_to(S.sig, S.branches, [u for u, _, _ in T.branches])
    t_cells = refine_to(T.sig, T.branches, [w for w, _, _ in s_cells])
    return [
        (w, (v1, c1), (v2, c2))
        for (w, v1, c1), (_, v2, c2) in zip(s_cells, t_cells)
    ]


def _cells(S, T):
    """(w, b1, b2, k, meets) for each cylinder w of common_refinement.

    k is None where S = T on [w].  Otherwise d(Sx, Tx) = 2^-k at every x of
    [w] when meets is false (equal image words with different carries, or
    incomparable words).  meets is true where one image word properly extends
    the other: 2^-k is the sup over [w], and the maps agree at exactly one
    point of [w] (_solve_agreement_point).
    """
    sig = S.sig
    for w, b1, b2 in common_refinement(S, T):
        (v1, c1), (v2, c2) = b1, b2
        if v1 != v2:
            k = lcp_len(v1, v2)
            yield w, b1, b2, k, k == min(len(v1), len(v2))
        elif c1 != c2:
            yield w, b1, b2, len(v1) + _sstar(sig, len(v1), c1 - c2), False
        else:
            yield w, b1, b2, None, False


def sup_pointwise_distance(S, T):
    """sup_x d(Sx, Tx), exact, for PrefixMaps."""
    ks = [k for _, _, _, k, _ in _cells(S, T) if k is not None]
    return Fraction(1, 2 ** min(ks)) if ks else Fraction(0)


def inf_pointwise_distance(S, T):
    """inf_x d(Sx, Tx), exact, for PrefixMaps: 0 where they agree anywhere."""
    ks = []
    for _, _, _, k, meets in _cells(S, T):
        if k is None or meets:
            return Fraction(0)
        ks.append(k)
    return Fraction(1, 2 ** max(ks))


def _solve_agreement_point(sig, w, b1, b2):
    """The unique x in [w] with Sx = Tx when images are comparable distinct.

    Branch images v1.(y+c1) and v1.r.(y+c2) agree at the solution of
    z = r.(z+e); the carry recursion is eventually periodic.
    """
    (v1, c1), (v2, c2) = b1, b2
    if len(v1) > len(v2):
        (v1, c1), (v2, c2) = (v2, c2), (v1, c1)
    sub = sig.shift(len(v1))
    digits = []
    seen = {}
    cur_sub, cur_r, cur_e = sub, v2[len(v1) :], c2 - c1
    while (cur_sub, cur_r, cur_e) not in seen:
        seen[cur_sub, cur_r, cur_e] = len(digits)
        nxt, cur_e = cur_sub.add_to_word(0, cur_r, cur_e)
        digits.extend(cur_r)
        cur_sub = cur_sub.shift(len(cur_r))
        cur_r = nxt
    start = seen[cur_sub, cur_r, cur_e]
    z = Point.make(sub, tuple(digits[:start]), tuple(digits[start:]))
    return point_with_prefix(sig, w, point_add(z, -c1))


class OpenDiffSet(Value):
    """A clopen core minus finitely many eventually periodic points."""

    core: Clopen
    removed: tuple = ()

    def __repr__(self):
        sig = self.core.sig
        core = wordset_text(sig, self.core)
        if not self.removed:
            return f"OpenDiffSet({core})"
        pts = ", ".join(point_text(sig, p) for p in self.removed)
        return f"OpenDiffSet({core} minus [{pts}])"


def difference_set(S, T):
    """E(S, T): where the maps differ or their inverses differ.  S^-1 x != T^-1 x
    exactly where x = Sy with Sy != Ty, so the inverse side is the S-image of
    the forward side, core and removed points alike."""
    words, fwd_removed = [], []
    for w, b1, b2, k, meets in _cells(S, T):
        if k is not None:
            words.append(w)
            if meets:
                fwd_removed.append(_solve_agreement_point(S.sig, w, b1, b2))
    fwd_core = Clopen.make(S.sig, words)
    inv_core = S.image(fwd_core)
    inv_removed = [S.apply(x) for x in fwd_removed]
    # a removed point of one side stays removed unless the other side differs there
    removed = {x for x in fwd_removed if not x.in_clopen(inv_core) or x in inv_removed}
    removed |= {x for x in inv_removed if not x.in_clopen(fwd_core) or x in fwd_removed}
    removed = sorted(removed, key=lambda p: (p.head, p.cycle))
    return OpenDiffSet(fwd_core | inv_core, tuple(removed))


def weak_distance(S, T):
    """d_w(S, T) = sup d(Sx, Tx) + sup d(S~x, T~x), exact for PrefixMaps."""
    return sup_pointwise_distance(S, T) + sup_pointwise_distance(
        S.inverse(), T.inverse()
    )


# -- named variants ----------------------------------------------------------


def Odometer(sig, shift=1):
    """The adding machine x |-> x + shift on the mixed-radix digit group."""
    return PrefixMap(sig, (((), (), shift),))


# one-line names over PrefixMap, for callers that name operations by function


def as_prefix_map(h):
    """h itself: every exact map is a PrefixMap."""
    return h


def compose(S, T):
    """S o T."""
    return S.after(T)


def inverse(T):
    return T.inverse()


def power(T, n):
    return T.power(n)


def tabulate(T, depth):
    """Depth-t domain cylinders with their exact image clopen sets."""
    return [(Clopen(T.sig, (u,)), Clopen(T.sig, (v,))) for u, v, _ in T.table(depth)]


# -- fixed and periodic structure ---------------------------------------------


def fixed_points(T):
    """Clopen fixed part and isolated fixed points of an exact map."""
    fixed_words = []
    isolated = []
    for w, b1, b2, k, meets in _cells(T, PrefixMap.identity(T.sig)):
        if k is None:
            fixed_words.append(w)
        elif meets:
            isolated.append(_solve_agreement_point(T.sig, w, b1, b2))
    return Clopen.make(T.sig, fixed_words), sorted(
        isolated, key=lambda p: (p.head, p.cycle)
    )


def exact_period_steps(T, max_power):
    """Yield (p, T^p, part, points) for p = 1, ..., max_power in turn: the
    clopen part and the isolated points of exact period p.

    A point fixed by T^p and T^q is fixed by T^gcd(p, q), so the points of
    exact period p are the fixed points of T^p not fixed by any lower power.
    Each power is composed only when the caller asks for its step.
    """
    covered = Clopen.empty(T.sig)
    seen = []
    cur = PrefixMap.identity(T.sig)
    for p in range(1, max_power + 1):
        cur = T.after(cur)
        fix, iso = fixed_points(cur)
        part = fix - covered
        points = [x for x in iso if not x.in_clopen(covered) and x not in seen]
        covered = covered | part
        seen += points
        yield p, cur, part, points


def period_structure(T, max_power):
    """Exact-period clopen parts and isolated periodic points up to a bound,
    from every step of exact_period_steps."""
    if max_power < 1:
        raise ValueError(f"bound must be positive, got {max_power}")
    exact = {}
    iso_exact = {}
    powers_equal_id = {}
    for p, cur, part, points in exact_period_steps(T, max_power):
        exact[p] = part
        iso_exact[p] = points
        powers_equal_id[p] = cur.is_identity()
    # the exact-period parts are disjoint
    covered = Clopen.make(T.sig, [w for part in exact.values() for w in part.words])
    return {
        "exact_period_parts": exact,
        "isolated_periodic_points": iso_exact,
        "power_is_identity": powers_equal_id,
        "residual": covered.complement(),
        "aperiodic_up_to_bound": covered.is_empty and not any(iso_exact.values()),
    }


def full_group_membership(S, T, bound):
    """Clopen sets E_i = {x : Sx = T^i x} for |i| <= bound, or a refusal.

    Full-branch agreement only; each branch is assigned to the exponent of
    smallest absolute value (positive first on ties).  T^i and T^-i are
    each one composition from T^(i-1) and T^-(i-1), so the bound costs at
    most 2 * bound compositions and one inversion.
    """
    if bound < 0:
        raise ValueError(f"bound must not be negative, got {bound}")
    sig = S.sig
    rest = Clopen.full(sig)
    parts = {}
    Tinv = T.inverse()
    pos = neg = PrefixMap.identity(T.sig)
    for i in range(bound + 1):
        if rest.is_empty:
            break
        if i:
            pos, neg = T.after(pos), Tinv.after(neg)
        for j, Ti in ((i, pos), (-i, neg)) if i else ((0, pos),):
            agree = [w for w, _, _, k, _ in _cells(S, Ti) if k is None]
            E = Clopen.make(sig, agree) & rest
            if not E.is_empty:
                parts[j] = E
                rest = rest - E
    if not rest.is_empty:
        return None, rest
    return parts, None


def centralizer_index_sequence(R, S, depth):
    """Indices (i_0, ..., i_t) with R acting on the depth-(s+1) cylinder
    cycle exactly as S^{i_s} does, and i_{s+1} = i_s mod p_s.

    R is refined one level at a time, to the depth-(s+1) cylinders at level
    s, so a failure costs only the levels up to it.  Indices are mixed-radix
    with level 0 least significant, so the index of a word's length-(s+1)
    prefix is its index mod p_s.  R rotates the depth-(s+1) cycle when every
    image word has length at least s + 1 and index(v) - index(u) takes one
    value mod p_s; a deeper refinement only extends such words, so it keeps
    both answers.  On failure, reports the first level where R does not act
    as any power of the odometer S.
    """
    if S.shift is None:
        raise TypeError("centralizer test needs an odometer as second argument")
    sig = S.sig
    if R.sig != sig:
        raise ValueError("signature mismatch")
    if depth < 0:
        raise ValueError(f"depth must not be negative, got {depth}")
    pieces = R.branches
    indices = []
    moduli = []
    places = []  # the place values of levels 0 .. s
    p = 1
    for s in range(depth + 1):
        places.append(p)
        p *= sig.level(s)
        pieces = refine_to(sig, pieces, sig.words(s + 1))
        # the index mod p_s of a word is that of its first s + 1 digits
        shifts = {
            (sum(map(mul, v, places)) - sum(map(mul, u, places))) % p
            for u, v, _ in pieces
        }
        found = None
        if min(len(v) for _, v, _ in pieces) > s and len(shifts) == 1:
            (shift0,) = shifts
            found = next((i for i in range(p) if (i * S.shift - shift0) % p == 0), None)
        if found is None or (
            indices and found % moduli[-1] != indices[-1] % moduli[-1]
        ):
            return {
                "ok": False,
                "failure_level": s,
                "indices": tuple(indices),
                "moduli": tuple(moduli),
            }
        indices.append(found)
        moduli.append(p)
    return {"ok": True, "indices": tuple(indices), "moduli": tuple(moduli)}


# -- tower systems -------------------------------------------------------------


class TowerSystem(Value):
    """Nested cyclic clopen partitions; the set-level witness of rank one.

    Level t is a cyclic tuple of disjoint nonempty clopen sets covering the
    space; level t+1 refines it with height multiplied by a level size of the
    signature, atom i of the finer cycle projecting into atom i mod m of the
    coarser one.
    """

    sig: Signature
    levels: tuple

    @staticmethod
    def from_cycle(cycle):
        if any(a.is_empty for a in cycle):
            raise ValueError("empty atom in cycle")
        return TowerSystem(cycle[0].sig, (tuple(cycle),))

    def ensure_levels(self, k):
        """This system with at least k levels, by the canonical refinement
        rule."""
        levels = list(self.levels)
        while len(levels) < k:
            lam = self.sig.level(len(levels) - 1)
            parts = [a.split(lam) for a in levels[-1]]
            levels.append(tuple(part[q] for q in range(lam) for part in parts))
        return TowerSystem(self.sig, tuple(levels))

    def heights(self):
        return [len(c) for c in self.levels]

    def tail_bound(self):
        """Weak-metric ambiguity of the deepest materialized level."""
        return 2 * max(a.diameter() for a in self.levels[-1])
