"""The seeded generators keep their draw order: the same seed gives the same
test data and the same `gen` output."""

import hashlib
import random

from cantordyn import cli, gen
from cantordyn.docformat import KINDS, doc_clopen, doc_homeo, print_document

from conftest import SIGS

# sha256 of the printed draws below; a change in the draw order of any
# generator changes it.  Re-recorded once, for the spelling alone, when a map
# adding k != 0 everywhere came to be printed as `odometer SIG k`: the first
# recorded texts with each `shift-pair SIG {e->e+k}` respelled so give it
DRAWS_SHA256 = "e09aa1a3f002c22a21aa30a7e78ebf85808d104395af3b212659baf9ea69a31a"


def test_draws_are_pinned():
    h = hashlib.sha256()

    def put(doc):
        h.update(print_document(doc).encode())

    for seed in range(50):
        rng = random.Random(seed)
        for sig in SIGS:
            put(doc_clopen(gen.random_clopen(rng, sig)))
            put(doc_homeo(gen.random_homeo(rng, sig)))
            put(doc_homeo(gen.random_homeo(rng, sig, depth=4)))
            for max_atoms in (16, 8):
                for A in gen.random_partition(rng, sig, max_atoms=max_atoms):
                    put(doc_clopen(A))
        for kind in (None, *KINDS):
            put(gen.random_document(random.Random(seed), kind))
    assert h.hexdigest() == DRAWS_SHA256
    # perfbench/workloads.py builds the expected `gen` output through cli
    assert cli.random_document is gen.random_document
