"""Parsing and printing of .cdyn documents.

A document is a self-describing single-line record, optionally preceded by a
`cdyn 1` version header.  Printing always emits the header and the canonical
body; parsing never canonicalizes silently, it rejects non-canonical input
with the violated rule named.  The grammar lives in docs/format.md.
"""

from __future__ import annotations

from fractions import Fraction

from .space import (
    DYADIC,
    Clopen,
    Point,
    Signature,
    Value,
    is_prefix,
    point_text,
    word_text,
    wordset_text,
)
from .measure import Dirac, Mixture, ProductMeasure
from .homeo import Odometer, PrefixMap, branches_text
from .topology import (
    BarPNeighborhood,
    PNeighborhood,
    UniformNeighborhood,
    WeakBall,
)

VERSION = 1

# numbers and words are ASCII; str.isdigit would also pass digits that int()
# rejects (superscripts) or reads silently (other scripts)
DIGITS = "0123456789"

KINDS = (
    "signature",
    "clopen",
    "measure",
    "homeo",
    "neighborhood",
    "castle",
    "certificate",
)


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


def _all_rows_uniform(mu):
    rows = mu.preweights + mu.cycleweights
    return all(x * len(row) == 1 for row in rows for x in row)


def measure_text(mu):
    sig = mu.sig
    if isinstance(mu, ProductMeasure):
        if _all_rows_uniform(mu):
            return "uniform"
        pre = ";".join(",".join(str(x) for x in row) for row in mu.preweights)
        cyc = ";".join(",".join(str(x) for x in row) for row in mu.cycleweights)
        return f"product[{pre}|{cyc}]"
    if isinstance(mu, Dirac):
        return f"dirac {point_text(sig, mu.atom)}"
    if isinstance(mu, Mixture):
        parts = [f"{w} {measure_text(m)}" for w, m in mu.components]
        return "mix(" + " + ".join(parts) + ")"
    raise TypeError(f"unknown measure kind {type(mu).__name__}")


def homeo_text(h):
    if isinstance(h, Odometer):
        return f"odometer {sig_text(h.sig)} {h.shift}"
    kind = "tree-pair" if h.is_tree_pair else "shift-pair"
    return f"{kind} {sig_text(h.sig)} {{{branches_text(h.sig, h.branches)}}}"


def _body_text(doc):
    kind, v = doc.kind, doc.value
    if kind == "signature":
        return f"signature {sig_text(v)}"
    if kind == "clopen":
        return f"clopen {sig_text(v.sig)} {wordset_text(v.sig, v)}"
    if kind == "measure":
        return f"measure {sig_text(v.sig)} {measure_text(v)}"
    if kind == "homeo":
        return f"homeo {homeo_text(v)}"
    if kind == "neighborhood":
        base = f"({homeo_text(v.base)})"
        sig = v.base.sig
        if isinstance(v, WeakBall):
            return f"neighborhood weak {v.radius} {base}"
        if isinstance(v, PNeighborhood):
            sets = ", ".join(wordset_text(sig, F) for F in v.sets)
            return f"neighborhood p {base} [{sets}]"
        if isinstance(v, UniformNeighborhood):
            mus = ", ".join(f"({measure_text(m)})" for m in v.measures)
            return f"neighborhood uniform {v.epsilon} {base} [{mus}]"
        if isinstance(v, BarPNeighborhood):
            sets = ", ".join(wordset_text(sig, F) for F in v.sets)
            mus = ", ".join(f"({measure_text(m)})" for m in v.measures)
            return f"neighborhood barp {v.epsilon} {base} [{sets}] [{mus}]"
        raise TypeError(f"unknown neighborhood kind {type(v).__name__}")
    if kind == "castle":
        tws = ", ".join(
            f"({wordset_text(v.sig, b)}, {h})" for b, h in v.towers
        )
        bnd = ", ".join(str(x) for x in v.bound)
        return (
            f"castle {sig_text(v.sig)} towers[{tws}] "
            f"base {wordset_text(v.sig, v.base)} bound [{bnd}]"
        )
    if kind == "certificate":
        items = ", ".join(f"{k} {_cert_value_text(v.sig, x)}" for k, x in v.entries)
        return f"certificate {sig_text(v.sig)} {v.name} {{{items}}}"
    raise ValueError(f"unknown document kind {kind}")


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


def print_document(doc):
    return f"cdyn {doc.version}\n{_body_text(doc)}\n"


# -- JSON mirror -----------------------------------------------------------------


def document_json(doc):
    """Field-for-field JSON-ready mirror of the text document."""
    v = doc.value
    out = {"version": doc.version, "kind": doc.kind}
    if doc.kind == "signature":
        out["signature"] = sig_text(v)
    elif doc.kind == "clopen":
        out["signature"] = sig_text(v.sig)
        out["words"] = [word_text(v.sig, w) for w in v.words]
    elif doc.kind == "measure":
        out["signature"] = sig_text(v.sig)
        out["measure"] = measure_text(v)
    elif doc.kind == "homeo":
        out["homeo"] = homeo_text(v)
    elif doc.kind == "neighborhood":
        sig = v.base.sig
        out["base"] = homeo_text(v.base)
        if isinstance(v, WeakBall):
            out["topology"] = "weak"
            out["radius"] = str(v.radius)
        elif isinstance(v, PNeighborhood):
            out["topology"] = "p"
            out["sets"] = [wordset_text(sig, F) for F in v.sets]
        elif isinstance(v, UniformNeighborhood):
            out["topology"] = "uniform"
            out["epsilon"] = str(v.epsilon)
            out["measures"] = [measure_text(m) for m in v.measures]
        else:
            out["topology"] = "barp"
            out["epsilon"] = str(v.epsilon)
            out["sets"] = [wordset_text(sig, F) for F in v.sets]
            out["measures"] = [measure_text(m) for m in v.measures]
    elif doc.kind == "castle":
        out["signature"] = sig_text(v.sig)
        out["towers"] = [
            {"base": [word_text(v.sig, w) for w in b.words], "height": h}
            for b, h in v.towers
        ]
        out["base"] = [word_text(v.sig, w) for w in v.base.words]
        out["bound"] = [str(x) for x in v.bound]
    elif doc.kind == "certificate":
        out["signature"] = sig_text(v.sig)
        out["name"] = v.name
        out["entries"] = {k: _cert_value_text(v.sig, x) for k, x in v.entries}
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

    def int_(self):
        return int(self._int_text())

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
        self.lit("base(")
        pre = self._numlist(")", ";")
        self.lit(";")
        per = self._numlist(")", ")")
        self.lit(")")
        try:
            return Signature(tuple(pre), tuple(per))
        except ValueError as e:
            self.error(str(e))

    def _numlist(self, *stops):
        out = []
        self.ws()
        while not any(self.peek(s) for s in stops):
            out.append(self.int_())
            if not self.try_lit(","):
                break
            self.ws()
        return out

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
        return w

    def wordset(self, sig):
        self.lit("{")
        words = []
        self.ws()
        if not self.try_lit("}"):
            while True:
                words.append(self.word(sig))
                if self.try_lit("}"):
                    break
                self.lit(",")
        self._check_canonical_words(sig, words)
        return Clopen(sig, tuple(words))

    def _check_canonical_words(self, sig, words):
        seen = set()
        for w in words:
            if w in seen:
                self.error(f"not canonical: duplicate-word {word_text(sig, w)}")
            seen.add(w)
        if words != sorted(words):
            self.error("not canonical: not-sorted")
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                if is_prefix(a, b) or is_prefix(b, a):
                    self.error("not canonical: not-prefix-free")
        prefixes = {}
        for w in words:
            if w:
                prefixes.setdefault(w[:-1], set()).add(w[-1])
        for p, ds in prefixes.items():
            if len(ds) == sig.level(len(p)):
                self.error("not canonical: sibling-complete")

    def point(self, sig):
        self.ws()
        head = ()
        if not self.peek("("):
            head = self.word(sig)
        self.lit("(")
        # the cycle rides at the head's depth; Point.make checks digit ranges
        # over every level the stream occupies
        cycle = self.word(sig, validate=False)
        self.lit(")")
        try:
            x = Point.make(sig, head, cycle)
        except ValueError as e:
            self.error(str(e))
        if x.head != head or x.cycle != cycle:
            self.error("not canonical: point-not-reduced")
        return x

    def measure(self, sig):
        self.ws()
        if self.try_lit("uniform"):
            return ProductMeasure.uniform(sig)
        if self.try_lit("product["):
            pre = self._weight_rows("|")
            self.lit("|")
            cyc = self._weight_rows("]")
            self.lit("]")
            try:
                mu = ProductMeasure.make(sig, pre, cyc)
            except ValueError as e:
                self.error(str(e))
            if _all_rows_uniform(mu):
                self.error("not canonical: product-is-uniform")
            return mu
        if self.try_lit("dirac"):
            return Dirac(sig, self.point(sig))
        if self.try_lit("mix("):
            comps = []
            while True:
                w = self.frac()
                m = self.measure(sig)
                if isinstance(m, Mixture):
                    self.error("nested mixtures are not allowed")
                comps.append((w, m))
                if self.try_lit(")"):
                    break
                self.lit("+")
            rendered = [measure_text(m) for _, m in comps]
            if rendered != sorted(rendered):
                self.error("not canonical: mix-not-sorted")
            try:
                return Mixture.make(sig, comps)
            except ValueError as e:
                self.error(str(e))
        self.error("expected a measure expression")

    def _weight_rows(self, stop):
        rows = []
        self.ws()
        while not self.peek(stop):
            row = [self.frac()]
            while self.try_lit(","):
                row.append(self.frac())
            rows.append(tuple(row))
            if not self.try_lit(";"):
                break
            self.ws()
        return rows

    def _arrow(self):
        self.ws()
        if self.try_lit("->") or self.try_lit("→"):
            return
        self.error("expected '->'")

    def homeo(self):
        self.ws()
        if self.try_lit("odometer"):
            sig = self.sig()
            k = self.int_()
            return Odometer(sig, k)
        shifted = False
        if self.try_lit("tree-pair"):
            pass
        elif self.try_lit("shift-pair"):
            shifted = True
        else:
            self.error("expected tree-pair, shift-pair or odometer")
        sig = self.sig()
        self.lit("{")
        branches = []
        while True:
            u = self.word(sig)
            self._arrow()
            v = self.word(sig)
            c = 0
            if shifted:
                self.ws()
                if self.peek("+") or self.peek("-"):
                    c = self.int_()
            branches.append((u, v, c))
            if self.try_lit("}"):
                break
            self.lit(",")
        if shifted and all(c == 0 for _, _, c in branches):
            self.error("not canonical: shift-pair-degenerate (use tree-pair)")
        try:
            pm = PrefixMap.make(sig, branches)
        except ValueError as e:
            self.error(str(e))
        if pm.branches != tuple(branches):
            self.error("not canonical: branches-not-canonical")
        return pm

    def paren_homeo(self):
        self.lit("(")
        h = self.homeo()
        self.lit(")")
        return h

    def neighborhood(self):
        topo = self.ident()
        if topo == "weak":
            r = self.frac()
            base = self.paren_homeo()
            return WeakBall(base, r)
        if topo == "p":
            base = self.paren_homeo()
            sig = base.sig
            sets = self._bracket_list(lambda: self.wordset(sig))
            self._check_sorted([wordset_text(sig, F) for F in sets])
            return PNeighborhood(base, tuple(sets))
        if topo == "uniform":
            eps = self.frac()
            base = self.paren_homeo()
            sig = base.sig
            mus = self._bracket_list(lambda: self._paren_measure(sig))
            self._check_sorted([measure_text(m) for m in mus])
            return UniformNeighborhood(base, tuple(mus), eps)
        if topo == "barp":
            eps = self.frac()
            base = self.paren_homeo()
            sig = base.sig
            sets = self._bracket_list(lambda: self.wordset(sig))
            self._check_sorted([wordset_text(sig, F) for F in sets])
            mus = self._bracket_list(lambda: self._paren_measure(sig))
            self._check_sorted([measure_text(m) for m in mus])
            return BarPNeighborhood(base, tuple(sets), tuple(mus), eps)
        self.error(f"unknown neighborhood topology {topo!r}")

    def _paren_measure(self, sig):
        self.lit("(")
        m = self.measure(sig)
        self.lit(")")
        return m

    def _bracket_list(self, item):
        self.lit("[")
        out = []
        if not self.try_lit("]"):
            while True:
                out.append(item())
                if self.try_lit("]"):
                    break
                self.lit(",")
        return out

    def _check_sorted(self, rendered):
        if rendered != sorted(rendered):
            self.error("not canonical: list-not-sorted")

    def castle(self):
        sig = self.sig()
        self.lit("towers[")
        towers = []
        while True:
            self.lit("(")
            b = self.wordset(sig)
            self.lit(",")
            h = self.int_()
            if h < 1:
                self.error("tower height must be positive")
            self.lit(")")
            towers.append((b, h))
            if self.try_lit("]"):
                break
            self.lit(",")
        self._check_sorted([wordset_text(sig, b) for b, _ in towers])
        self.lit("base")
        base = self.wordset(sig)
        self.lit("bound")
        self.lit("[")
        bound = []
        if not self.try_lit("]"):
            while True:
                bound.append(self.frac())
                if self.try_lit("]"):
                    break
                self.lit(",")
        return CastleDoc(sig, tuple(towers), base, tuple(bound))

    def certificate(self):
        sig = self.sig()
        name = self.ident()
        self.lit("{")
        entries = []
        if not self.try_lit("}"):
            while True:
                key = self.ident()
                entries.append((key, self.cert_value(sig)))
                if self.try_lit("}"):
                    break
                self.lit(",")
        if [k for k, _ in entries] != sorted(k for k, _ in entries):
            self.error("not canonical: certificate-keys-not-sorted")
        return CertificateDoc(sig, name, tuple(entries))

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


def parse(text):
    """Parse a .cdyn document; never canonicalizes, rejects with the rule named."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DocumentError("empty document")
    version = VERSION
    body_line = 1
    if lines[0].split() and lines[0].split()[0] == "cdyn":
        fields = lines[0].split()
        if len(fields) != 2 or not fields[1].isascii() or not fields[1].isdigit():
            raise DocumentError("malformed version header", line=1)
        version = int(fields[1])
        if version != VERSION:
            raise DocumentError(f"unsupported version {version}", line=1)
        lines = lines[1:]
        body_line = 2
    if len(lines) != 1:
        raise DocumentError("expected a single body line", line=body_line)
    p = _Parser(lines[0], line=body_line)
    kind = p.ident()
    if kind not in KINDS:
        p.error(f"unknown document kind {kind!r}")
    if kind == "signature":
        value = p.sig()
    elif kind == "clopen":
        sig = p.sig()
        value = p.wordset(sig)
    elif kind == "measure":
        sig = p.sig()
        value = p.measure(sig)
    elif kind == "homeo":
        value = p.homeo()
    elif kind == "neighborhood":
        value = p.neighborhood()
    elif kind == "castle":
        value = p.castle()
    else:
        value = p.certificate()
    if not p.eof():
        p.error("trailing input after document body")
    return Document(kind=kind, value=value, version=version)


# -- document constructors -------------------------------------------------------


def doc_signature(sig):
    return Document("signature", sig)


def doc_clopen(A):
    return Document("clopen", A)


def doc_measure(mu):
    if isinstance(mu, Mixture):
        comps = tuple(sorted(mu.components, key=lambda wm: measure_text(wm[1])))
        mu = Mixture(mu.sig, comps)
    return Document("measure", mu)


def doc_homeo(h):
    return Document("homeo", h)


def doc_neighborhood(n):
    sig = n.base.sig
    if isinstance(n, PNeighborhood):
        sets = tuple(sorted(n.sets, key=lambda F: wordset_text(sig, F)))
        n = PNeighborhood(n.base, sets)
    elif isinstance(n, UniformNeighborhood):
        mus = tuple(sorted(n.measures, key=measure_text))
        n = UniformNeighborhood(n.base, mus, n.epsilon)
    elif isinstance(n, BarPNeighborhood):
        sets = tuple(sorted(n.sets, key=lambda F: wordset_text(sig, F)))
        mus = tuple(sorted(n.measures, key=measure_text))
        n = BarPNeighborhood(n.base, sets, mus, n.epsilon)
    return Document("neighborhood", n)


def doc_castle(sig, towers, base, bound):
    tws = tuple(sorted(towers, key=lambda th: wordset_text(sig, th[0])))
    return Document("castle", CastleDoc(sig, tws, base, tuple(bound)))


def doc_certificate(sig, name, entries):
    items = tuple(sorted(entries.items() if isinstance(entries, dict) else entries))
    return Document("certificate", CertificateDoc(sig, name, items))
