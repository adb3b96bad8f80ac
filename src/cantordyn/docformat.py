"""Parsing and printing of .cdyn documents.

A document is a self-describing single-line record, optionally preceded by a
`cdyn 1` version header.  Printing always emits the header and the canonical
body; parsing never canonicalizes silently, it rejects non-canonical input
with the violated rule named.  The grammar lives in docs/format.md.

body_fields describes each document kind once: the text and the JSON mirror
are both written from it.  The parser reads every bracketed list with
_Parser.seq, and a list that must be sorted is compared with the order its
canonical constructor builds.

`measure` and `topology` are imported where measures and neighborhoods are
read or written, so a document of another kind loads neither.
"""

from __future__ import annotations

from fractions import Fraction

from .space import (
    DYADIC,
    Clopen,
    Point,
    Signature,
    Value,
    canonical_words,
    point_text,
    word_text,
    wordset_text,
)
from .homeo import Odometer, PrefixMap, branches_text

VERSION = 1

# numbers and words are ASCII; str.isdigit would also pass digits that int()
# rejects (superscripts) or reads silently (other scripts)
DIGITS = "0123456789"


class CastleDoc(Value):
    sig: Signature
    towers: tuple  # of (base Clopen, height)
    base: Clopen
    bound: tuple  # of Fraction


class CertificateDoc(Value):
    sig: Signature
    name: str
    entries: tuple  # of (key, value), keys sorted


class Document(Value):
    kind: str
    value: object
    version: int = VERSION


class DocumentError(ValueError):
    def __init__(self, message, line=1, col=None):
        self.line = line
        self.col = col
        where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)


# -- rendering (words, sets and points: space.word_text and friends) ---------------


def sig_text(sig):
    if sig == DYADIC:
        return "dyadic"
    pre = ",".join(str(x) for x in sig.preperiod)
    per = ",".join(str(x) for x in sig.period)
    return f"base({pre};{per})"


def homeo_text(h):
    if h.shift is not None:
        return f"odometer {sig_text(h.sig)} {h.shift}"
    kind = "tree-pair" if h.is_tree_pair else "shift-pair"
    return f"{kind} {sig_text(h.sig)} {{{branches_text(h.sig, h.branches)}}}"


def _cert_value_text(sig, x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, Clopen):
        return wordset_text(sig, x)
    if isinstance(x, Point):
        return "point " + point_text(sig, x)
    raise TypeError(f"unsupported certificate value {x!r}")


# by class name, so that printing a neighborhood needs no import of topology
_TOPOLOGIES = {
    "WeakBall": "weak",
    "PNeighborhood": "p",
    "UniformNeighborhood": "uniform",
    "BarPNeighborhood": "barp",
}


def _same(key, text):
    """A field whose JSON value is its text."""
    return key, text, text


def _listed(texts, open_="[", close="]"):
    return open_ + ", ".join(texts) + close


def _words(sig, A):
    return [word_text(sig, w) for w in A.words]


def body_fields(doc):
    """(JSON key, JSON value, text) of each field of the body, in text order.

    The printed body is the kind followed by the texts, and the JSON mirror
    is the version, the kind and the keyed values.
    """
    v = doc.value
    if doc.kind == "homeo":
        return [_same("homeo", homeo_text(v))]
    if doc.kind == "neighborhood":
        sig, base = v.base.sig, homeo_text(v.base)
        fields = [_same("topology", _TOPOLOGIES[type(v).__name__])]
        for k in ("radius", "epsilon"):
            if k in v._fields:
                fields.append(_same(k, str(getattr(v, k))))
        fields.append(("base", base, f"({base})"))
        if "sets" in v._fields:
            sets = [wordset_text(sig, F) for F in v.sets]
            fields.append(("sets", sets, _listed(sets)))
        if "measures" in v._fields:
            from .measure import measure_text

            mus = [measure_text(m) for m in v.measures]
            fields.append(("measures", mus, _listed(f"({m})" for m in mus)))
        return fields
    sig = v if doc.kind == "signature" else v.sig
    fields = [_same("signature", sig_text(sig))]
    if doc.kind == "clopen":
        fields.append(("words", _words(sig, v), wordset_text(sig, v)))
    elif doc.kind == "measure":
        from .measure import measure_text

        fields.append(_same("measure", measure_text(v)))
    elif doc.kind == "castle":
        towers = [{"base": _words(sig, b), "height": h} for b, h in v.towers]
        tws = (f"({wordset_text(sig, b)}, {h})" for b, h in v.towers)
        bound = [str(x) for x in v.bound]
        fields += [
            ("towers", towers, _listed(tws, "towers[")),
            ("base", _words(sig, v.base), "base " + wordset_text(sig, v.base)),
            ("bound", bound, "bound " + _listed(bound)),
        ]
    elif doc.kind == "certificate":
        entries = [(k, _cert_value_text(sig, x)) for k, x in v.entries]
        items = (f"{k} {text}" for k, text in entries)
        fields += [
            _same("name", v.name),
            ("entries", dict(entries), _listed(items, "{", "}")),
        ]
    return fields


def print_document(doc):
    body = " ".join(text for _, _, text in body_fields(doc))
    return f"cdyn {doc.version}\n{doc.kind} {body}\n"


def document_json(doc):
    """Field-for-field JSON-ready mirror of the text document."""
    out = {key: value for key, value, _ in body_fields(doc)}
    out.update(version=doc.version, kind=doc.kind)
    return out


# -- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text, line=1):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, msg):
        raise DocumentError(msg, line=self.line, col=self.pos + 1)

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def eof(self):
        self.ws()
        return self.pos >= len(self.text)

    def peek(self, s):
        return self.text.startswith(s, self.pos)

    def try_lit(self, s):
        self.ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def lit(self, s):
        if not self.try_lit(s):
            self.error(f"expected {s!r}")

    def seq(self, open_, close, item, sep=","):
        """The items read by item() between open_ and close, separated by
        sep; [] for an empty list.  A separator before close is refused."""
        self.lit(open_)
        out = []
        if self.try_lit(close):
            return out
        while True:
            out.append(item())
            if self.try_lit(close):
                return out
            if not self.try_lit(sep):
                self.error(f"expected {sep!r} or {close!r}")
            self.ws()
            if self.peek(close):
                self.error("not canonical: trailing-separator")

    def ident(self):
        self.ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "-_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start : self.pos]

    def _int_text(self):
        self.ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in DIGITS:
            self.pos += 1
        if self.pos == start or not self.text[start : self.pos].lstrip("+-"):
            self.error("expected an integer")
        return self.text[start : self.pos]

    def int_(self, signed=False):
        """An integer as the printer writes it: no leading zeros, no -0, and
        a leading + only where signed (a branch carry is printed with its
        sign)."""
        text = self._int_text()
        n = int(text)
        printed = f"{n:+d}" if signed else str(n)
        if text != printed:
            self.error(f"not canonical: integer-form {text} (printed {printed})")
        return n

    def frac(self):
        text = num = self._int_text()
        den = "1"
        if self.try_lit("/"):
            den = self._int_text()
            text += "/" + den
        if int(den) == 0:
            self.error(f"zero-denominator: rational {text}")
        x = Fraction(int(num), int(den))
        if str(x) != text:
            self.error(f"not canonical: rational-form {text} (printed {x})")
        return x

    def sig(self):
        self.ws()
        if self.try_lit("dyadic"):
            return DYADIC
        pre = self.seq("base(", ";", self.int_)
        per = self.seq("", ")", self.int_)
        try:
            sig = Signature(tuple(pre), tuple(per))
        except ValueError as e:
            self.error(str(e))
        if sig == DYADIC:
            self.error("not canonical: signature-form base(;2) (printed dyadic)")
        return sig

    def word(self, sig, validate=True):
        self.ws()
        if self.try_lit("e"):
            return ()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos] in DIGITS or self.text[self.pos] == "."
        ):
            self.pos += 1
        raw = self.text[start : self.pos]
        if not raw:
            self.error("expected a word")
        if "." in raw:
            digits = raw.split(".")
            if "" in digits:
                self.error(f"empty-digit: word {raw}")
            w = tuple(int(x) for x in digits)
        else:
            w = tuple(int(ch) for ch in raw)
        if validate and not sig.valid_word(w):
            self.error(f"digit-out-of-range: word {raw}")
        # digits run together where every level has at most 10 of them, and
        # are dotted, without leading zeros, otherwise
        if raw != word_text(sig, w):
            self.error(f"not canonical: word-form {raw} (printed {word_text(sig, w)})")
        return w

    def wordset(self, sig):
        words = self.seq("{", "}", lambda: self.word(sig))
        # in a sorted list a word and its extensions are neighbours
        for a, b in zip(words, words[1:]):
            if a == b:
                self.error(f"not canonical: duplicate-word {word_text(sig, a)}")
            if b < a:
                self.error("not canonical: not-sorted")
            if b[: len(a)] == a:
                self.error("not canonical: not-prefix-free")
        words = tuple(words)
        if canonical_words(sig, words) != words:
            self.error("not canonical: sibling-complete")
        return Clopen(sig, words)

    def point(self, sig):
        self.ws()
        head = ()
        if not self.peek("("):
            head = self.word(sig)
        # the cycle rides at the head's depth; Point.make checks digit ranges
        # over every level the stream occupies
        cycle = self._paren(lambda: self.word(sig, validate=False))
        try:
            x = Point.make(sig, head, cycle)
        except ValueError as e:
            self.error(str(e))
        if x.head != head or x.cycle != cycle:
            self.error("not canonical: point-not-reduced")
        return x

    def measure(self, sig):
        from .measure import Dirac, Mixture, ProductMeasure

        self.ws()
        if self.try_lit("uniform"):
            return ProductMeasure.uniform(sig)
        if self.peek("product["):
            pre = self.seq("product[", "|", self._row, ";")
            cyc = self.seq("", "]", self._row, ";")
            try:
                mu = ProductMeasure.make(sig, pre, cyc)
            except ValueError as e:
                self.error(str(e))
            if mu.all_rows_uniform():
                self.error("not canonical: product-is-uniform")
            return mu
        if self.try_lit("dirac"):
            return Dirac(sig, self.point(sig))
        if self.peek("mix("):
            comps = self.seq("mix(", ")", lambda: self._component(sig), "+")
            try:
                mix = Mixture.make(sig, comps)
            except ValueError as e:
                self.error(str(e))
            if mix.components != tuple(comps):
                self.error("not canonical: mix-not-sorted")
            return mix
        self.error("expected a measure expression")

    def _component(self, sig):
        from .measure import Mixture

        w = self.frac()
        m = self.measure(sig)
        if isinstance(m, Mixture):
            self.error("nested mixtures are not allowed")
        return w, m

    def _row(self):
        row = [self.frac()]
        while self.try_lit(","):
            row.append(self.frac())
        return tuple(row)

    def homeo(self):
        self.ws()
        if self.try_lit("odometer"):
            sig = self.sig()
            k = self.int_()
            if not k:
                ident = homeo_text(PrefixMap.identity(sig))
                self.error(f"not canonical: zero-shift (printed {ident})")
            return Odometer(sig, k)
        shifted = self.try_lit("shift-pair")
        if not shifted and not self.try_lit("tree-pair"):
            self.error("expected tree-pair, shift-pair or odometer")
        sig = self.sig()
        branches = self.seq("{", "}", lambda: self._branch(sig, shifted))
        if shifted and all(c == 0 for _, _, c in branches):
            self.error("not canonical: shift-pair-degenerate (use tree-pair)")
        try:
            pm = PrefixMap.make(sig, branches)
        except ValueError as e:
            self.error(str(e))
        if pm.branches != tuple(branches):
            self.error("not canonical: branches-not-canonical")
        if pm.shift is not None:
            self.error(f"not canonical: odometer-form (printed {homeo_text(pm)})")
        return pm

    def _branch(self, sig, shifted):
        u = self.word(sig)
        if not (self.try_lit("->") or self.try_lit("→")):
            self.error("expected '->'")
        v = self.word(sig)
        self.ws()
        if not (shifted and (self.peek("+") or self.peek("-"))):
            return u, v, 0
        c = self.int_(signed=True)
        if c == 0:
            self.error("not canonical: zero-carry (a carry of 0 is left out)")
        return u, v, c

    def _paren(self, item):
        self.lit("(")
        x = item()
        self.lit(")")
        return x

    def neighborhood(self):
        from . import topology

        topo = self.ident()
        types = {name: t for t, name in _TOPOLOGIES.items()}
        if topo not in types:
            self.error(f"unknown neighborhood topology {topo!r}")
        t = getattr(topology, types[topo])
        # the fields in text order, as body_fields prints them
        got = {k: self.frac() for k in ("radius", "epsilon") if k in t._fields}
        base = got["base"] = self._paren(self.homeo)
        if "sets" in t._fields:
            got["sets"] = tuple(self.seq("[", "]", lambda: self.wordset(base.sig)))
        if "measures" in t._fields:
            got["measures"] = tuple(
                self.seq("[", "]", lambda: self._paren(lambda: self.measure(base.sig)))
            )
        n = t(**got)
        if doc_neighborhood(n).value != n:
            self.error("not canonical: list-not-sorted")
        return n

    def castle(self):
        sig = self.sig()
        towers = self.seq("towers[", "]", lambda: self._tower(sig))
        if not towers:
            self.error("a castle needs a tower")
        self.lit("base")
        base = self.wordset(sig)
        self.lit("bound")
        castle = doc_castle(sig, towers, base, self.seq("[", "]", self.frac)).value
        if castle.towers != tuple(towers):
            self.error("not canonical: list-not-sorted")
        return castle

    def _tower(self, sig):
        self.lit("(")
        b = self.wordset(sig)
        self.lit(",")
        h = self.int_()
        if h < 1:
            self.error("tower height must be positive")
        self.lit(")")
        return b, h

    def certificate(self):
        sig = self.sig()
        name = self.ident()
        entries = self.seq("{", "}", lambda: (self.ident(), self.cert_value(sig)))
        if len({k for k, _ in entries}) != len(entries):
            self.error("not canonical: duplicate-key")
        cert = doc_certificate(sig, name, entries).value
        if cert.entries != tuple(entries):
            self.error("not canonical: certificate-keys-not-sorted")
        return cert

    def cert_value(self, sig):
        self.ws()
        if self.try_lit("true"):
            return True
        if self.try_lit("false"):
            return False
        if self.peek("{"):
            return self.wordset(sig)
        if self.try_lit("point"):
            return self.point(sig)
        return self.frac()


_BODIES = {
    "signature": _Parser.sig,
    "clopen": lambda p: p.wordset(p.sig()),
    "measure": lambda p: p.measure(p.sig()),
    "homeo": _Parser.homeo,
    "neighborhood": _Parser.neighborhood,
    "castle": _Parser.castle,
    "certificate": _Parser.certificate,
}
KINDS = tuple(_BODIES)


def parse(text):
    """Parse a .cdyn document; never canonicalizes, rejects with the rule named."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DocumentError("empty document")
    body_line = 1
    header = lines[0].split()
    if header[:1] == ["cdyn"]:
        p = _Parser(lines[0])
        p.lit("cdyn")
        version = p.int_()
        if not p.eof():
            p.error("malformed version header")
        if version != VERSION:
            raise DocumentError(f"unsupported version {version}", line=1)
        lines, body_line = lines[1:], 2
    if len(lines) != 1:
        raise DocumentError("expected a single body line", line=body_line)
    p = _Parser(lines[0], line=body_line)
    kind = p.ident()
    if kind not in _BODIES:
        p.error(f"unknown document kind {kind!r}")
    value = _BODIES[kind](p)
    if not p.eof():
        p.error("trailing input after document body")
    return Document(kind, value)


# -- document constructors -------------------------------------------------------


def doc_signature(sig):
    return Document("signature", sig)


def doc_clopen(A):
    return Document("clopen", A)


def doc_measure(mu):
    return Document("measure", mu)


def doc_homeo(h):
    return Document("homeo", h)


def doc_neighborhood(n):
    """The neighborhood with its sets and measures in rendered order."""
    from .measure import measure_text

    sig = n.base.sig
    fields = {f: getattr(n, f) for f in n._fields}
    if "sets" in fields:
        fields["sets"] = tuple(sorted(n.sets, key=lambda F: wordset_text(sig, F)))
    if "measures" in fields:
        fields["measures"] = tuple(sorted(n.measures, key=measure_text))
    return Document("neighborhood", type(n)(**fields))


def doc_castle(sig, towers, base, bound):
    tws = tuple(sorted(towers, key=lambda th: wordset_text(sig, th[0])))
    return Document("castle", CastleDoc(sig, tws, base, tuple(bound)))


def doc_certificate(sig, name, entries):
    items = entries.items() if isinstance(entries, dict) else entries
    items = tuple(sorted(items, key=lambda kv: kv[0]))
    return Document("certificate", CertificateDoc(sig, name, items))
