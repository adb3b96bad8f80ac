"""Independent oracles for the benchmark's result checks.

Nothing here calls into cantordyn.  A map is read as its raw branch list
(u, v, c), acting by u.y -> v.(y + c) with adding-machine addition on the
tail y; an odometer is the single branch ((), (), k).  A set is read as its
raw word list.  Results are compared as word masks: every word expanded to
all its extensions of one common depth.

The map algebra works on pieces (w, x, c): the cylinder of w mapped by
w.y -> x.(y + c).  Applying a map to a piece list refines a piece whenever
its image word is shorter than the branch it meets, so a chain of maps
resolves to pieces without any canonical form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def level(sig, t):
    """Level size lambda_t, read from the signature's raw fields."""
    pre, per = sig.preperiod, sig.period
    if t < len(pre):
        return pre[t]
    return per[(t - len(pre)) % len(per)]


def words_at(sig, depth):
    return list(itertools.product(*(range(level(sig, t)) for t in range(depth))))


def branches_of(h):
    """Raw branches of a PrefixMap, or the single branch of an Odometer."""
    if hasattr(h, "branches"):
        return tuple(h.branches)
    return (((), (), h.shift),)


def inverse_branches(brs):
    return tuple((v, u, -c) for u, v, c in brs)


def _add(sig, offset, digits, c):
    """digits + c with digit i at level offset + i: (new digits, carry)."""
    out = []
    carry = c
    for i, d in enumerate(digits):
        carry, digit = divmod(d + carry, level(sig, offset + i))
        out.append(digit)
    return tuple(out), carry


def apply(sig, brs, pieces):
    """Pieces of M o P for the branch list M of a map and the pieces P."""
    out = []
    stack = list(pieces)
    while stack:
        w, x, c = stack.pop()
        for u, v, cm in brs:
            if len(u) <= len(x) and x[: len(u)] == u:
                r2, k = _add(sig, len(u), x[len(u) :], cm)
                out.append((w, v + r2, c + k))
                break
            if u[: len(x)] == x:
                # the image word is too short for this branch: refine by a digit
                for d in range(level(sig, len(w))):
                    (d2,), k = _add(sig, len(x), (d,), c)
                    stack.append((w + (d,), x + (d2,), k))
                break
        else:
            raise ValueError(f"branches do not cover the word {x}")
    return out


def identity_pieces(sig, depth):
    return [(w, w, 0) for w in words_at(sig, depth)]


def domain_depth(brs):
    return max((len(u) for u, _, _ in brs), default=0)


def map_table(sig, brs, depth=None):
    """{w: (x, c)} over the depth-D words, D at least the branch depth."""
    depth = domain_depth(brs) if depth is None else depth
    return {w: (x, c) for w, x, c in apply(sig, brs, identity_pieces(sig, depth))}


def same_map(sig, brs1, brs2):
    depth = max(domain_depth(brs1), domain_depth(brs2))
    return map_table(sig, brs1, depth) == map_table(sig, brs2, depth)


def _sup_distance(sig, brs1, brs2):
    """sup over x of d(M1 x, M2 x), d(x, y) = 2^-(first differing level)."""
    depth = max(domain_depth(brs1), domain_depth(brs2))
    t1, t2 = map_table(sig, brs1, depth), map_table(sig, brs2, depth)
    best = Fraction(0)
    for w, (x1, c1) in t1.items():
        x2, c2 = t2[w]
        if x1 == x2:
            if c1 == c2:
                continue
            # the tails y + c1 and y + c2 first differ at the first level s
            # whose running product of level sizes does not divide c1 - c2
            s, n = 0, level(sig, len(x1))
            while (c1 - c2) % n == 0:
                s += 1
                n *= level(sig, len(x1) + s)
            first = len(x1) + s
        else:
            k = 0
            while k < min(len(x1), len(x2)) and x1[k] == x2[k]:
                k += 1
            # comparable words: some tail differs right after the shorter one
            first = k
        best = max(best, Fraction(1, 2**first))
    return best


def weak_distance(sig, brs1, brs2):
    """Exact d_w: the sup distance of the maps plus that of their inverses."""
    return _sup_distance(sig, brs1, brs2) + _sup_distance(
        sig, inverse_branches(brs1), inverse_branches(brs2)
    )


def chain_is_identity(sig, chain):
    """Whether applying the branch lists in order gives the identity."""
    pieces = identity_pieces(sig, domain_depth(chain[0]) if chain else 0)
    for brs in chain:
        pieces = apply(sig, brs, pieces)
    return all(x == w and c == 0 for w, x, c in pieces)


def image_words(sig, brs, words):
    return [x for _, x, _ in apply(sig, brs, [(w, w, 0) for w in words])]


# -- word masks ---------------------------------------------------------------


def mask(sig, words, depth):
    """All depth-D words below the given words (each of length <= D)."""
    out = set()
    for w in words:
        tails = itertools.product(
            *(range(level(sig, t)) for t in range(len(w), depth))
        )
        out.update(tuple(w) + tail for tail in tails)
    return frozenset(out)


def depth_of(*word_lists):
    return max((len(w) for ws in word_lists for w in ws), default=0)


def same_set(sig, words1, words2):
    d = depth_of(words1, words2)
    return mask(sig, words1, d) == mask(sig, words2, d)


def is_partition(sig, word_lists):
    d = depth_of(*word_lists)
    seen = set()
    for ws in word_lists:
        m = mask(sig, ws, d)
        if not m or seen & m:
            return False
        seen |= m
    return len(seen) == len(words_at(sig, d))


def point_in(words, head, cycle):
    """Whether the stream head.(cycle)^inf lies in the union of cylinders."""
    def digit(t):
        return head[t] if t < len(head) else cycle[(t - len(head)) % len(cycle)]

    return any(all(digit(t) == d for t, d in enumerate(w)) for w in words)


# -- measures -----------------------------------------------------------------


def product_mass(rows, words):
    """Mass of disjoint cylinders under independent digits, rows(t) a weight row."""
    total = Fraction(0)
    for w in words:
        m = Fraction(1)
        for t, d in enumerate(w):
            m *= rows(t)[d]
        total += m
    return total


def mixture_mass(components, words):
    """components: (weight, rows) pairs of a convex mixture of products."""
    return sum((wt * product_mass(rows, words) for wt, rows in components), Fraction(0))


def uniform_rows(sig):
    return lambda t: [Fraction(1, level(sig, t))] * level(sig, t)


# -- defect over unions of atoms ----------------------------------------------


def max_symmetric_defect(sig, s_images, t_images, rows):
    """max over unions F of atoms of mu(TF ^ SF), mu a product measure."""
    d = depth_of(*s_images, *t_images)
    index = {w: i for i, w in enumerate(words_at(sig, d))}
    weight = [product_mass(rows, [w]) for w in index]

    def bits(words):
        b = 0
        for w in mask(sig, words, d):
            b |= 1 << index[w]
        return b

    sb = [bits(ws) for ws in s_images]
    tb = [bits(ws) for ws in t_images]
    best = Fraction(0)
    for sel in range(1 << len(sb)):
        s = t = 0
        for i in range(len(sb)):
            if sel >> i & 1:
                s |= sb[i]
                t |= tb[i]
        x = s ^ t
        best = max(best, sum((weight[i] for i in range(len(weight)) if x >> i & 1), Fraction(0)))
    return best
