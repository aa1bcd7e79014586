from __future__ import annotations

import hashlib
import itertools

import pytest

from uniline import corpus as corpus_module
from uniline.corpus import digraphs_up_to_iso
from uniline.structures import render_structure

# OEIS A000273: directed graphs on n unlabeled nodes
CLASS_COUNTS = {1: 1, 2: 3, 3: 16, 4: 218, 5: 9608}
# render_structure over sizes 1-5 in corpus order; case names such as
# size5#8110 and the stored benchmark verdicts depend on this order
RENDER_SHA256 = "6779658d53527db1589f356c796802738b790fa0d45c8201e73d0248b513f720"


@pytest.fixture(scope="module")
def corpus():
    return {size: digraphs_up_to_iso(size) for size in CLASS_COUNTS}


def arc_mask(structure, perm=None) -> int:
    """Bit k is set when the k-th pair (i, j), i != j in row-major order, is
    an arc; ``perm`` maps each vertex position to its image first."""
    size = structure.size()
    perm = perm or range(size)
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    bit = {pair: k for k, pair in enumerate(pairs)}
    position = {element: i for i, element in enumerate(structure.universe)}
    mask = 0
    for a, b in structure.tuples("e"):
        mask |= 1 << bit[perm[position[a]], perm[position[b]]]
    return mask


def test_class_counts(corpus):
    assert {size: len(graphs) for size, graphs in corpus.items()} == CLASS_COUNTS


def test_masks_strictly_increase(corpus):
    for graphs in corpus.values():
        masks = [arc_mask(g) for g in graphs]
        assert all(a < b for a, b in zip(masks, masks[1:]))


def test_each_mask_is_least_over_all_permutations(corpus):
    for size, graphs in corpus.items():
        checked = graphs if size <= 4 else graphs[::25]
        perms = list(itertools.permutations(range(size)))
        for g in checked:
            assert arc_mask(g) == min(arc_mask(g, perm) for perm in perms)


def test_rendering_pins_labels_and_order(corpus):
    digest = hashlib.sha256()
    for size in sorted(corpus):
        for g in corpus[size]:
            digest.update(render_structure(g).encode())
    assert digest.hexdigest() == RENDER_SHA256


def test_size_limit_is_checked_before_any_work():
    assert corpus_module.MAX_SIZE == 5
    with pytest.raises(ValueError, match=">= 1"):
        digraphs_up_to_iso(0)
    for size in (6, 10**6):
        with pytest.raises(ValueError, match="at most 5"):
            digraphs_up_to_iso(size)
