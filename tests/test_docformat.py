import hashlib
import json
import random
from fractions import Fraction

import pytest

from cantordyn.space import DYADIC, Clopen, Point, Signature
from cantordyn.measure import Dirac, Mixture, ProductMeasure
from cantordyn.homeo import Odometer, PrefixMap, compose
from cantordyn.topology import (
    BarPNeighborhood,
    PNeighborhood,
    UniformNeighborhood,
    WeakBall,
)
from cantordyn.docformat import (
    Document,
    DocumentError,
    doc_castle,
    doc_certificate,
    doc_clopen,
    doc_homeo,
    doc_measure,
    doc_neighborhood,
    doc_signature,
    document_json,
    parse,
    print_document,
)
from cantordyn.gen import random_document

SIG = DYADIC


def roundtrip(doc):
    text = print_document(doc)
    back = parse(text)
    assert back == doc
    assert print_document(back) == text
    return text


def test_signature_documents():
    assert roundtrip(doc_signature(DYADIC)) == "cdyn 1\nsignature dyadic\n"
    s = Signature((3,), (2, 4))
    assert roundtrip(doc_signature(s)) == "cdyn 1\nsignature base(3;2,4)\n"
    big = Signature((), (12, 2))
    text = roundtrip(doc_clopen(Clopen.cylinder(big, (11, 0))))
    assert "{11.0}" in text  # dotted words once a level exceeds ten


def test_clopen_and_measure_documents():
    A = Clopen.make(SIG, [(0, 1), (1, 0)])
    assert roundtrip(doc_clopen(A)) == "cdyn 1\nclopen dyadic {01, 10}\n"
    roundtrip(doc_clopen(Clopen.empty(SIG)))
    roundtrip(doc_clopen(Clopen.full(SIG)))
    roundtrip(doc_measure(ProductMeasure.uniform(SIG)))
    mu = ProductMeasure.make(SIG, [], [(Fraction(1, 3), Fraction(2, 3))])
    text = roundtrip(doc_measure(mu))
    assert "product[|1/3,2/3]" in text
    half = (Fraction(1, 2), Fraction(1, 2))
    flat = ProductMeasure.make(SIG, [half], [half])
    assert print_document(doc_measure(flat)) == "cdyn 1\nmeasure dyadic uniform\n"
    d = Dirac(SIG, Point.make(SIG, (0,), (1,)))
    assert roundtrip(doc_measure(d)) == "cdyn 1\nmeasure dyadic dirac 0(1)\n"
    mix = Mixture.make(SIG, [(Fraction(1, 4), d), (Fraction(3, 4), mu)])
    roundtrip(doc_measure(mix))


def test_mixtures_are_canonical_as_built():
    uni = ProductMeasure.uniform(SIG)
    dirac = Dirac(SIG, Point.make(SIG, (), (0,)))
    half = Fraction(1, 2)
    mix = Mixture.make(SIG, [(half, uni), (half, dirac)])
    assert mix == Mixture.make(SIG, [(half, dirac), (half, uni)])
    assert doc_measure(mix).value == mix
    n = doc_neighborhood(UniformNeighborhood(Odometer(SIG, 1), (mix,), Fraction(1, 4)))
    text = roundtrip(n)
    assert "[(mix(1/2 dirac (0) + 1/2 uniform))]" in text


def test_homeo_documents():
    roundtrip(doc_homeo(Odometer(SIG, 1)))
    roundtrip(doc_homeo(Odometer(Signature((), (2, 3)), -2)))
    swap = PrefixMap.tree_pair(SIG, [((0,), (1,)), ((1,), (0,))])
    assert (
        roundtrip(doc_homeo(swap))
        == "cdyn 1\nhomeo tree-pair dyadic {0->1, 1->0}\n"
    )
    shifted = PrefixMap.make(SIG, [((0,), (1,), 0), ((1,), (0,), 2)])
    text = roundtrip(doc_homeo(shifted))
    assert "shift-pair" in text and "+2" in text
    # a map equal to x + k prints as the odometer however it was built, and
    # the identity as a tree pair
    plus_one = PrefixMap.make(SIG, [((0,), (1,), 0), ((1,), (0,), 1)])
    assert print_document(doc_homeo(plus_one)) == "cdyn 1\nhomeo odometer dyadic 1\n"
    back = compose(Odometer(SIG, 1), Odometer(SIG, -1))
    assert print_document(doc_homeo(back)) == "cdyn 1\nhomeo tree-pair dyadic {e->e}\n"


def test_neighborhood_documents():
    od = Odometer(SIG, 1)
    roundtrip(doc_neighborhood(WeakBall(od, Fraction(1, 4))))
    F = Clopen.cylinder(SIG, (0,))
    G = Clopen.cylinder(SIG, (1,))
    # constructor sorts the sets by their rendered text
    n = doc_neighborhood(PNeighborhood(od, (G, F)))
    assert roundtrip(n).count("{0}") == 1
    uni = ProductMeasure.uniform(SIG)
    roundtrip(doc_neighborhood(UniformNeighborhood(od, (uni,), Fraction(1, 8))))
    roundtrip(
        doc_neighborhood(BarPNeighborhood(od, (F, G), (uni,), Fraction(1, 2)))
    )


def test_castle_and_certificate_documents():
    B0 = Clopen.cylinder(SIG, (0, 0))
    text = roundtrip(
        doc_castle(SIG, [(B0, 4)], B0, [Fraction(1)])
    )
    assert text == "cdyn 1\ncastle dyadic towers[({00}, 4)] base {00} bound [1]\n"
    cert = doc_certificate(
        SIG,
        "witness",
        {"forward-closed": True, "set": Clopen.cylinder(SIG, (0,))},
    )
    text = roundtrip(cert)
    assert "witness {forward-closed true, set {0}}" in text
    roundtrip(
        doc_certificate(
            SIG,
            "misc",
            {"atom": Point.make(SIG, (), (1,)), "mass": Fraction(1, 3), "n": 4},
        )
    )


def test_header_is_optional_but_printed():
    d = parse("signature dyadic")
    assert d == doc_signature(DYADIC)
    assert print_document(d).startswith("cdyn 1\n")
    assert parse("clopen dyadic {0}") == parse("cdyn 1\nclopen dyadic {0}")


def test_arrow_variants():
    assert parse("homeo tree-pair dyadic {0→1, 1→0}") == parse(
        "homeo tree-pair dyadic {0->1, 1->0}"
    )


REJECTS = [
    ("clopen dyadic {1, 0}", "not-sorted"),
    ("clopen dyadic {0, 00}", "not-prefix-free"),
    ("clopen dyadic {0, 0}", "duplicate-word"),
    ("clopen dyadic {0, 1}", "sibling-complete"),
    ("clopen dyadic {2}", "digit-out-of-range"),
    ("measure dyadic dirac 0(10)", "point-not-reduced"),
    ("measure dyadic dirac (11)", "point-not-reduced"),
    (
        "measure dyadic mix(1/2 uniform + 1/2 dirac (0))",
        "mix-not-sorted",
    ),
    (
        "homeo tree-pair dyadic {00->00, 01->01, 1->1}",
        "branches-not-canonical",
    ),
    ("homeo shift-pair dyadic {0->1, 1->0}", "shift-pair-degenerate"),
    # the adding machine has one spelling, and the identity is a tree pair
    (
        "homeo shift-pair dyadic {e->e+1}",
        "not canonical: odometer-form (printed odometer dyadic 1)",
    ),
    (
        "homeo shift-pair base(;2,3) {e->e-2}",
        "not canonical: odometer-form (printed odometer base(;2,3) -2)",
    ),
    (
        "homeo odometer dyadic 0",
        "not canonical: zero-shift (printed tree-pair dyadic {e->e})",
    ),
    (
        "neighborhood p (odometer dyadic 1) [{1}, {0}]",
        "list-not-sorted",
    ),
    (
        "certificate dyadic x {b 1, a 2}",
        "certificate-keys-not-sorted",
    ),
    ("neighborhood weak 1/0 (odometer dyadic 1)", "zero-denominator"),
    ("neighborhood weak 12/8 (odometer dyadic 1)", "rational-form"),
    ("neighborhood weak 1/-2 (odometer dyadic 1)", "rational-form"),
    ("certificate dyadic x {a +3}", "rational-form"),
    ("clopen base(12;2) {.1}", "empty-digit"),
    ("measure dyadic product[|1/2,1/2]", "product-is-uniform"),
    ("measure dyadic product[1/2,1/2|1/2,1/2]", "product-is-uniform"),
    ("signature base(2,;2)", "trailing-separator"),
    ("signature base(2;2,)", "trailing-separator"),
    ("measure dyadic product[|1/3,2/3;]", "trailing-separator"),
    ("clopen dyadic {0, }", "trailing-separator"),
    ("certificate dyadic x {a 1, a 2}", "duplicate-key"),
    (
        "measure dyadic mix(1/2 dirac (0) + 1/2 mix(1/2 dirac (1) + 1/2 uniform))",
        "nested mixtures are not allowed",
    ),
    ("castle dyadic towers[] base {} bound []", "a castle needs a tower"),
    ("castle dyadic towers[({0}, 0)] base {} bound []", "tower height must be positive"),
    ("castle dyadic towers[({1}, 1), ({0}, 1)] base {} bound []", "list-not-sorted"),
    # an integer, a signature and a word read only as the printer writes them
    ("cdyn 01\nsignature dyadic", "not canonical: integer-form 01 (printed 1)"),
    ("homeo odometer dyadic +3", "not canonical: integer-form +3 (printed 3)"),
    ("homeo odometer dyadic 03", "not canonical: integer-form 03 (printed 3)"),
    ("homeo odometer dyadic -0", "not canonical: integer-form -0 (printed 0)"),
    ("signature base(;2,03)", "not canonical: integer-form 03 (printed 3)"),
    ("castle dyadic towers[({0}, +1)] base {} bound []", "integer-form +1 (printed 1)"),
    ("castle dyadic towers[({0}, 01)] base {} bound []", "integer-form 01 (printed 1)"),
    ("homeo shift-pair dyadic {0->0+01, 1->1}", "integer-form +01 (printed +1)"),
    ("homeo shift-pair dyadic {0->0+1, 1->1+0}", "not canonical: zero-carry"),
    ("signature base(;2)", "not canonical: signature-form base(;2) (printed dyadic)"),
    ("clopen base(;11) {10}", "not canonical: word-form 10 (printed 1.0)"),
    ("clopen base(;11) {1.03}", "not canonical: word-form 1.03 (printed 1.3)"),
    ("clopen dyadic {0.1}", "not canonical: word-form 0.1 (printed 01)"),
]


@pytest.mark.parametrize("text,rule", REJECTS)
def test_rejects_non_canonical_input(text, rule):
    with pytest.raises(DocumentError) as e:
        parse(text)
    assert rule in str(e.value)


def test_reject_malformed_shapes():
    with pytest.raises(DocumentError):
        parse("")
    with pytest.raises(DocumentError):
        parse("cdyn two\nsignature dyadic")
    with pytest.raises(DocumentError):
        parse("cdyn 2\nsignature dyadic")
    with pytest.raises(DocumentError):
        parse("signature dyadic\nsignature dyadic")
    with pytest.raises(DocumentError):
        parse("gadget dyadic")
    with pytest.raises(DocumentError):
        parse("signature dyadic trailing")
    with pytest.raises(DocumentError):
        parse("homeo tree-pair dyadic {0->1}")  # not a bijection
    with pytest.raises(DocumentError):
        parse("measure dyadic product[|]")  # no cycle row


def test_error_carries_position():
    with pytest.raises(DocumentError) as e:
        parse("cdyn 1\nclopen dyadic {1, 0}")
    assert e.value.line == 2
    assert e.value.col is not None


# sha256 of the text and sorted-key JSON of the 300 documents below, and of
# the fuzz outcomes (each accepted document's text, or `rejected`); a change
# of either document boundary changes them.  The fuzz digest was re-recorded
# when non-canonical integers and word forms came to be refused: 4 of its
# 3000 mutants (base(;03), a carry +01, and plain words 31 and 000 over
# signatures printed dotted) went from accepted to rejected, and no accepted
# mutant prints differently.  Both were re-recorded again when a map adding
# k != 0 everywhere came to be printed only as `odometer SIG k`: the earlier
# texts with each `shift-pair SIG {e->e+k}` respelled so hash to the
# roundtrip digest, and the fuzz digest moved because its mutation draws
# depend on the length of each text (55 of its 3000 documents were respelled)
ROUNDTRIP_SHA256 = "8f93bdb044dc4a5a5119a0fe7a92246eac712e73c9e044e40070baee98270db0"
FUZZ_SHA256 = "c24a797cf151c1524c7d47f2cb3a62bf0997d2c9b21b5752a184b9579b84c17e"


def test_random_documents_roundtrip():
    rng = random.Random(99)
    h = hashlib.sha256()
    for _ in range(300):
        doc = random_document(rng)
        text = print_document(doc)
        assert parse(text) == doc
        j = document_json(doc)
        assert j["kind"] == doc.kind and j["version"] == 1
        h.update(text.encode())
        h.update(json.dumps(j, sort_keys=True).encode())
    assert h.hexdigest() == ROUNDTRIP_SHA256


def test_mutated_documents_parse_or_raise_document_error():
    """Seeded fuzz of the input boundary: a mutated printed document is
    either a document or a DocumentError, never another exception."""
    rng = random.Random(5)
    h = hashlib.sha256()
    alphabet = "0123456789/.-+,;()[]{}e \u2192\u00b2\n"
    for _ in range(3000):
        text = print_document(random_document(rng))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text))
            ch = rng.choice(alphabet + text)
            op = rng.randrange(3)
            if op == 0:
                text = text[:k] + text[k + 1 :]
            elif op == 1:
                text = text[:k] + ch + text[k:]
            else:
                text = text[:k] + ch + text[k + 1 :]
        try:
            doc = parse(text)
        except DocumentError:
            h.update(b"rejected\0")
            continue
        assert isinstance(doc, Document)
        h.update(print_document(doc).encode() + b"\0")
    assert h.hexdigest() == FUZZ_SHA256


def _one_character_mutants(text):
    """text with one 0, + or - inserted, one character deleted or one
    character doubled."""
    for k in range(len(text) + 1):
        for ch in "0+-":
            yield text[:k] + ch + text[k:]
        if k < len(text):
            yield text[:k] + text[k + 1 :]
            yield text[:k] + text[k] + text[k:]


def test_parser_accepts_only_what_the_printer_writes():
    """Whitespace is the one leniency: every one-character mutant of a
    printed document either prints back as itself up to whitespace or is
    refused with a DocumentError naming the reason."""

    def squash(s):
        return "".join(s.split())

    accepted = refused = 0
    for seed in range(50):
        text = print_document(random_document(random.Random(seed)))
        for m in set(_one_character_mutants(text)):
            try:
                doc = parse(m)
            except DocumentError as e:
                assert str(e), m
                refused += 1
                continue
            assert squash(print_document(doc)) == squash(m), m
            accepted += 1
    assert accepted and refused


def test_json_mirror_fields():
    j = document_json(doc_clopen(Clopen.make(SIG, [(0, 1)])))
    assert j == {
        "version": 1,
        "kind": "clopen",
        "signature": "dyadic",
        "words": ["01"],
    }
    j = document_json(doc_homeo(Odometer(SIG, 1)))
    assert j["homeo"] == "odometer dyadic 1"


@pytest.mark.parametrize("sig", [DYADIC, Signature((), (2, 2, 12))])
def test_reprs_use_the_document_notation(sig):
    A = Clopen.make(sig, [(0, 1), (1, 0, 1)])
    x = Point.make(sig, (), (0, 1))
    T = PrefixMap.tree_pair(sig, [((0, 0), (0, 1)), ((0, 1), (0, 0)), ((1,), (1,))])
    clopen_body = print_document(doc_clopen(A)).split("\n")[1]
    dirac_body = print_document(doc_measure(Dirac(sig, x))).split("\n")[1]
    homeo_body = print_document(doc_homeo(T)).split("\n")[1]
    assert repr(A) == "Clopen" + clopen_body[clopen_body.index("{") :]
    assert repr(x) == f"Point[{dirac_body.split('dirac ')[1]}]"
    assert repr(T) == "PrefixMap" + homeo_body[homeo_body.index("{") :]
