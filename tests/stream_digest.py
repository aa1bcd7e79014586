"""Drain every depth-2 formula stream of the corpus and check its digest.

Run from the repository root:

    PYTHONPATH=src python tests/stream_digest.py

For each corpus structure (sizes 1-5 up to isomorphism, then the crafted
cases), in corpus order, and for n = 1 and 2 (n at most the size), every
item of ``semantic_items(structure, n, 2)`` adds one line
``render|table|depth|open_vars`` to one SHA-256.  The script prints the
digest and exits 1 unless it is ``EXPECTED``, the digest of the stream
before the scan took open sets from its operands and relation tables from
element names.  A change that must keep the stream keeps this digest; one
that changes the stream on purpose states the new digest here.
"""

from __future__ import annotations

import hashlib
import sys

from uniline.corpus import MAX_SIZE, crafted_structures, digraphs_up_to_iso
from uniline.formulas import render_formula, semantic_items

EXPECTED = "480ec21409697118b405f6b90582a2b433d38c04d765fbb258c3f81479900901"
DEPTH = 2


def stream_digest() -> tuple[str, int, int]:
    """The digest, the number of questions and the number of items."""
    digest = hashlib.sha256()
    questions = items = 0
    structures = [s for size in range(1, MAX_SIZE + 1) for s in digraphs_up_to_iso(size)]
    structures += [s for _, s in crafted_structures()]
    for structure in structures:
        for n in range(1, min(2, structure.size()) + 1):
            questions += 1
            for formula, table, depth, open_vars in semantic_items(structure, n, DEPTH):
                items += 1
                digest.update(f"{render_formula(formula)}|{table}|{depth}|{','.join(open_vars)}\n".encode())
    return digest.hexdigest(), questions, items


if __name__ == "__main__":
    got, questions, items = stream_digest()
    print(f"{questions} questions, {items} items, sha256 {got}")
    sys.exit(0 if got == EXPECTED else 1)
