"""Concrete model of the Cantor set and its clopen algebra.

Points are streams of digits, with the digit at level t drawn from
{0, ..., lambda_t - 1} for an eventually periodic sequence of level sizes
(lambda_t).  Clopen sets are finite unions of cylinders kept in a canonical
form (prefix-free, no complete sibling family, lexicographically sorted), so
set equality is tuple equality.

The set operations keep that form in one pass over the operands' sorted word
tuples, in the manner of decision diagrams: union merges the two tuples and
collapses complete sibling families on a stack, intersection keeps the
longer word of each comparable pair, and difference carves the subtracted
words out of each word above them.  Each result is canonical as built.

The metric is fixed once and for all as d(x, y) = 2^-(first differing level)
independent of the level sizes; every metric quantity in the library is
therefore a dyadic rational.

word_text, wordset_text and point_text are the one notation for words, sets
and points: the .cdyn documents print with them, and so do the reprs of
Clopen, Point and (through homeo.branches_text) PrefixMap.

Value is the one base of the package's record types (see its docstring).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
import itertools

Word = tuple  # tuple of ints, one digit per level


class Value:
    """Immutable record, equal and hashed by its type and fields.

    A subclass names its fields as annotations, in order, with any default
    as a class attribute.  Each subclass gets its own __init__, which takes
    the fields by position or keyword, sets them with object.__setattr__
    and then calls __post_init__ when the class has one.  Two values are
    equal when they have the same class and equal fields, and the hash is
    that of the field tuple.  Assigning or deleting an attribute raises
    AttributeError; pickling stores and restores the fields as usual.
    """

    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields = cls._fields + own
        params = ", ".join(f"{f}=cls.{f}" if hasattr(cls, f) else f for f in fields)
        body = "".join(f"\n    set_field(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        mine = "".join(f"self.{f}, " for f in fields)
        theirs = "".join(f"other.{f}, " for f in fields)
        # object.__setattr__ keeps the fields in CPython's inline values;
        # a write to the instance __dict__ would slow every later read
        ns = {"cls": cls, "set_field": object.__setattr__}
        exec(
            f"def __init__(self, {params}):{body}\n"
            "def __eq__(self, other):\n"
            "    if other is self:\n"
            "        return True\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            f"def __hash__(self):\n    return hash(({mine}))\n",
            ns,
        )
        for name in ("__init__", "__eq__", "__hash__"):
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Signature(Value):
    """Eventually periodic sequence of level sizes lambda_t >= 2."""

    preperiod: tuple = ()
    period: tuple = (2,)

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        for x in self.preperiod + self.period:
            if not isinstance(x, int) or x < 2:
                raise ValueError("every level size must be an integer >= 2")

    def level(self, t):
        """lambda_t."""
        if t < len(self.preperiod):
            return self.preperiod[t]
        return self.period[(t - len(self.preperiod)) % len(self.period)]

    def num_words(self, t):
        """Number of depth-t words (the product lambda_0 ... lambda_{t-1})."""
        n = 1
        for s in range(t):
            n *= self.level(s)
        return n

    def shift(self, n=1):
        """The signature seen from depth n."""
        if n == 0:
            return self
        if n <= len(self.preperiod):
            return Signature(self.preperiod[n:], self.period)
        r = (n - len(self.preperiod)) % len(self.period)
        return Signature((), self.period[r:] + self.period[:r])

    def same_tail(self, a, b):
        """Whether the levels from depth a on are those from depth b on."""
        span = range(len(self.preperiod) + len(self.period))
        return a == b or all(self.level(a + t) == self.level(b + t) for t in span)

    def valid_word(self, w):
        return all(0 <= d < self.level(t) for t, d in enumerate(w))

    def words(self, t, prefix=()):
        """All depth-t words that extend prefix, in lexicographic order."""
        ranges = [range(self.level(s)) for s in range(len(prefix), t)]
        return [prefix + w for w in itertools.product(*ranges)]

    def index(self, w):
        """Mixed-radix value of a word, level 0 least significant."""
        n, place = 0, 1
        for t, d in enumerate(w):
            n += d * place
            place *= self.level(t)
        return n

    def word_of_index(self, n, t):
        """Inverse of index at depth t (n taken mod the number of words)."""
        n %= self.num_words(t)
        digits = []
        for s in range(t):
            lam = self.level(s)
            digits.append(n % lam)
            n //= lam
        return tuple(digits)

    def add_to_word(self, depth, r, c):
        """Adding-machine sum of c and the digit word r sitting at level depth.

        Returns (r2, k) with r . y + c = r2 . (y + k) for every tail y: each
        digit absorbs the carry, least significant first, and once the carry
        is 0 the remaining digits stay as they are.
        """
        pre, per = self.preperiod, self.period
        p, q = len(pre), len(per)
        out = []
        for t, d in enumerate(r, depth):
            if not c:
                return tuple(out) + r[t - depth :], 0
            c, d = divmod(d + c, pre[t] if t < p else per[(t - p) % q])
            out.append(d)
        return tuple(out), c


DYADIC = Signature()


def is_prefix(u, w):
    return len(u) <= len(w) and w[: len(u)] == u


def lcp_len(u, w):
    n = 0
    for a, b in zip(u, w):
        if a != b:
            break
        n += 1
    return n


def canonical_words(sig, words):
    """Canonical form of a union of cylinders.

    Sorts the words once in lexicographic order, where a prefix sorts before
    its extensions, and collapses them in one pass (see _collapse).
    """
    return _collapse(sig, sorted(set(map(tuple, words))))


def _collapse(sig, ws):
    """Canonical word tuple of the union of the sorted words ws.

    A word is dropped when the last kept word is its prefix: in sorted order
    every word between a word and its extension extends it too.  A kept word
    goes on a stack, and a complete sibling family at the top of the stack
    collapses into its parent, repeating while parents complete families.
    """
    out = []
    for w in ws:
        if out:
            last = out[-1]
            if w[: len(last)] == last:
                continue
        # w closes a family only as its last sibling: digit lam - 1 >= 1,
        # with its lam - 1 siblings on the stack; the level is read only then
        while w:
            d = w[-1]
            k = len(out) - d
            if not d or k < 0 or d != sig.level(len(w) - 1) - 1:
                break
            parent = w[:-1]
            if out[k:] != [parent + (i,) for i in range(d)]:
                break
            del out[k:]
            w = parent
        out.append(w)
    return tuple(out)


def _intersection(A, B):
    """Canonical words of the intersection of two canonical word tuples.

    Of two comparable words the longer one is the intersection of their
    cylinders.  A complete sibling family of results would put its parent
    cylinder inside both operands, whose canonical words would then hold
    the parent or a prefix of it, so the result is canonical as it stands.
    """
    out = []
    i = j = 0
    while i < len(A) and j < len(B):
        a, b = A[i], B[j]
        if b[: len(a)] == a:
            out.append(b)
            j += 1
        elif a[: len(b)] == b:
            out.append(a)
            i += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return tuple(out)


def _difference(sig, A, B):
    """Canonical words of A minus B for canonical word tuples A and B.

    Each word of A is kept whole, dropped under a prefix in B, or carved
    around the words of B below it (see _carve).
    """
    out = []
    j, nb = 0, len(B)
    for a in A:
        while j < nb and B[j] < a and a[: len(B[j])] != B[j]:
            j += 1
        if j < nb and a[: len(B[j])] == B[j]:
            continue
        k = j
        while k < nb and B[k][: len(a)] == a:
            k += 1
        if k == j:
            out.append(a)
        else:
            _carve(sig, a, B[j:k], out)
            j = k
    return tuple(out)


def _carve(sig, a, below, out):
    """Append the words of the cylinder of a minus the cylinders of below.

    below is a nonempty, sorted, prefix-free tuple of proper extensions of a
    with no complete sibling family.  Along the paths to its words every
    sibling off a path is kept whole, so no complete family arises.
    """
    t = len(a)
    i = 0
    for d in range(sig.level(t)):
        c = a + (d,)
        k = i
        while k < len(below) and below[k][t] == d:
            k += 1
        if k == i:
            out.append(c)
        elif below[i] != c:
            _carve(sig, c, below[i:k], out)
        i = k


class Clopen(Value):
    """Canonical clopen subset: a prefix-free, sibling-merged word list."""

    sig: Signature
    words: tuple

    @staticmethod
    def make(sig, words):
        return Clopen(sig, canonical_words(sig, words))

    @staticmethod
    def empty(sig):
        return Clopen(sig, ())

    @staticmethod
    def full(sig):
        return Clopen(sig, ((),))

    @staticmethod
    def cylinder(sig, w):
        if not sig.valid_word(tuple(w)):
            raise ValueError(f"digits out of range for signature: {w}")
        return Clopen(sig, (tuple(w),))

    @property
    def is_empty(self):
        return not self.words

    def _check(self, other):
        if self.sig != other.sig:
            raise ValueError("signature mismatch")

    def __or__(self, other):
        self._check(other)
        if not other.words:
            return self
        if not self.words:
            return other
        return Clopen(self.sig, _collapse(self.sig, sorted(self.words + other.words)))

    def __and__(self, other):
        self._check(other)
        return Clopen(self.sig, _intersection(self.words, other.words))

    def __sub__(self, other):
        self._check(other)
        return Clopen(self.sig, _difference(self.sig, self.words, other.words))

    def complement(self):
        return Clopen.full(self.sig) - self

    def __xor__(self, other):
        return (self - other) | (other - self)

    def __le__(self, other):
        return (self - other).is_empty

    def diameter(self):
        if self.is_empty:
            raise ValueError("diameter of empty set")
        k = len(self.words[0])
        common = self.words[0]
        for w in self.words[1:]:
            k = min(k, lcp_len(common, w))
            common = common[:k]
        return Fraction(1, 2**k)

    def dist(self, other):
        """inf d(a, b) over points a in self, b in other."""
        self._check(other)
        if self.is_empty or other.is_empty:
            raise ValueError("distance to empty set")
        best = None
        for a in self.words:
            for b in other.words:
                if is_prefix(a, b) or is_prefix(b, a):
                    return Fraction(0)
                v = Fraction(1, 2 ** lcp_len(a, b))
                if best is None or v < best:
                    best = v
        return best

    def split(self, m):
        """Deterministic split into m nonempty disjoint parts with union self.

        Expands the lexicographically last cylinder into its children until at
        least m cylinders exist, then keeps the first m-1 as singleton parts
        and merges the tail into the final part.
        """
        if self.is_empty:
            raise ValueError("cannot split empty set")
        if m < 1:
            raise ValueError("m must be >= 1")
        # splitting the last of sorted prefix-free words keeps the words sorted
        ws = list(self.words)
        while len(ws) < m:
            last = ws.pop()
            ws.extend(last + (d,) for d in range(self.sig.level(len(last))))
        parts = [Clopen(self.sig, (w,)) for w in ws[: m - 1]]
        parts.append(Clopen.make(self.sig, ws[m - 1 :]))
        return parts

    def __repr__(self):
        return f"Clopen{wordset_text(self.sig, self)}"


def partition_at_depth(sig, t):
    """The canonical depth-t cylinder partition, in lexicographic order."""
    return [Clopen(sig, (w,)) for w in sig.words(t)]


def cyclic_partition(sig, t):
    """The depth-t partition in mixed-radix (adding-machine) order."""
    n = sig.num_words(t)
    return [Clopen(sig, (sig.word_of_index(i, t),)) for i in range(n)]


def is_partition(sets):
    """Exact check: pairwise disjoint with union the whole space.  In sorted
    order the words between a word and its extension extend it too, so two
    sets meet iff some word is a prefix of the word after it."""
    if not sets:
        return False
    for s in sets:
        sets[0]._check(s)
    words = sorted(w for s in sets for w in s.words)
    if any(b[: len(a)] == a for a, b in zip(words, words[1:])):
        return False
    return _collapse(sets[0].sig, words) == ((),)


class Point(Value):
    """Eventually periodic digit stream head . (cycle)^infinity.

    make returns the reduced spelling (minimal cycle, then minimal head),
    which is unique for each stream, so the fields are the equality.
    """

    sig: Signature
    head: tuple
    cycle: tuple

    @staticmethod
    def make(sig, head, cycle):
        head, cycle = tuple(head), tuple(cycle)
        if not cycle:
            raise ValueError("cycle must be nonempty")
        # validity: digits in range at every level the stream ever occupies
        horizon = len(head) + lcm(len(cycle), len(sig.period)) + len(sig.preperiod)
        probe = Point(sig, head, cycle)
        for t in range(horizon + 1):
            if not 0 <= probe.digit(t) < sig.level(t):
                raise ValueError(f"digit out of range at level {t}")
        # minimal period
        n = len(cycle)
        for p in range(1, n):
            if n % p == 0 and cycle == cycle[p:] + cycle[:p]:
                cycle = cycle[:p]
                break
        # minimal preperiod: a trailing head digit equal to the last cycle
        # digit joins the cycle; the digit stream, checked above, is unchanged
        while head and head[-1] == cycle[-1]:
            head, cycle = head[:-1], (cycle[-1],) + cycle[:-1]
        return Point(sig, head, cycle)

    def digit(self, t):
        if t < len(self.head):
            return self.head[t]
        return self.cycle[(t - len(self.head)) % len(self.cycle)]

    def digits(self, n):
        return tuple(self.digit(t) for t in range(n))

    def drop(self, n):
        """The tail stream from level n, as a Point over the shifted signature."""
        if n <= len(self.head):
            return Point.make(self.sig.shift(n), self.head[n:], self.cycle)
        k = (n - len(self.head)) % len(self.cycle)
        return Point.make(self.sig.shift(n), (), self.cycle[k:] + self.cycle[:k])

    def in_clopen(self, A):
        if A.sig != self.sig:
            raise ValueError("signature mismatch")
        return any(self.digits(len(w)) == w for w in A.words)

    def __repr__(self):
        return f"Point[{point_text(self.sig, self)}]"


def point_with_prefix(sig, w, tail):
    """The point w . tail over signature sig (tail lives at depth len(w))."""
    return Point.make(sig, tuple(w) + tail.head, tail.cycle)


def point_distance(x, y):
    if x.sig != y.sig:
        raise ValueError("signature mismatch")
    n = max(len(x.head), len(y.head)) + lcm(len(x.cycle), len(y.cycle))
    for t in range(n):
        if x.digit(t) != y.digit(t):
            return Fraction(1, 2**t)
    return Fraction(0)


def word_text(sig, w):
    """e for the empty word; plain digits when every level size of sig is at
    most 10, dotted digits otherwise."""
    if not w:
        return "e"
    sep = "" if all(x <= 10 for x in sig.preperiod + sig.period) else "."
    return sep.join(str(d) for d in w)


def wordset_text(sig, A):
    return "{" + ", ".join(word_text(sig, w) for w in A.words) + "}"


def point_text(sig, x):
    head = word_text(sig, x.head) if x.head else ""
    return f"{head}({word_text(sig, x.cycle)})"
