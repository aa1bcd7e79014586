"""Bitmask truth tables over finite assignment spaces.

A table records the truth value of a formula at every assignment of a fixed
variable tuple into a universe of size ``m``.  Assignments are encoded as
base-``m`` digit strings: variable ``i`` is digit ``i``, so the cell for
values ``(v_0, ..., v_{k-1})`` sits at bit ``sum(v_i * m**i)``.  All logical
connectives become integer bit operations and quantifiers become folds along
one digit axis, which keeps depth-bounded formula scans tractable: ``exists``
ORs and ``forall`` ANDs the table's shifts by each digit value of the axis,
in one pass, then keeps the cells at digit 0 and spreads them along the axis.
Every table lies within ``full``, so ``full ^ t`` is exactly the negation of
``t``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache

# A space keeps m masks per axis, each of up to one bit per cell; the limit
# caps that m * var_count * cells, at 12.5 MB of masks.
MAX_MASK_BITS = 10**8


@lru_cache(maxsize=None)
def space(universe_size: int, var_count: int) -> "AssignmentSpace":
    return AssignmentSpace(universe_size, var_count)


@lru_cache(maxsize=64)
def element_masks(spc: "AssignmentSpace", universe: tuple[str, ...]) -> tuple[dict[str, int], ...]:
    """Per axis of ``spc``, each element's cells: the space's own axis masks
    keyed by the elements of ``universe``, in order.  Cached, because the
    corpus builds thousands of structures over one universe tuple per size."""
    return tuple(dict(zip(universe, masks)) for masks in spc._axis_masks)


class AssignmentSpace:
    def __init__(self, universe_size: int, var_count: int):
        if universe_size < 1 or var_count < 0:
            raise ValueError("universe_size must be >= 1 and var_count >= 0")
        self.m = universe_size
        self.var_count = var_count
        self.cells = universe_size ** var_count
        if universe_size * var_count * self.cells > MAX_MASK_BITS:
            raise ValueError(f"assignment space {self.m}^{var_count} exceeds the limit of {MAX_MASK_BITS:,} mask bits")
        self.full = (1 << self.cells) - 1
        self.strides = [universe_size ** i for i in range(var_count)]
        # axis_mask[i][v]: bits of all cells whose digit i equals v
        self._axis_masks = [self._build_axis_masks(i) for i in range(var_count)]
        # fold[i]: the shifts that bring each digit value v > 0 of axis i to
        # digit 0, the cells at digit 0, and the sum of 2**(v*stride_i), which
        # replicates a digit-0 slice across axis i when multiplied by it
        self._fold = [
            (tuple(range(s, self.m * s, s)), masks[0], ((1 << (self.m * s)) - 1) // ((1 << s) - 1))
            for s, masks in zip(self.strides, self._axis_masks)
        ]

    def _build_axis_masks(self, axis: int) -> list[int]:
        s = self.strides[axis]
        period = self.m * s
        repeats = self.cells // period
        repeater = ((1 << (period * repeats)) - 1) // ((1 << period) - 1)
        ones = (1 << s) - 1
        return [repeater * (ones << (v * s)) for v in range(self.m)]

    def cell_index(self, values: tuple[int, ...]) -> int:
        """The cell of ``values``, with 0 on every axis past them."""
        return sum(v * s for v, s in zip(values, self.strides))

    # -- primitive tables ---------------------------------------------------

    def relation_table(
        self, tuples: frozenset[tuple[str, ...]], axes: tuple[int, ...], masks: Sequence[Mapping[str, int]]
    ) -> int:
        """The cells whose digits along ``axes`` spell a tuple of ``tuples``;
        ``masks[axis][e]`` holds the cells whose digit ``axis`` is element
        ``e``, as in ``element_masks``."""
        table = 0
        if len(axes) == 2:
            # the general loop unrolled: one AND of two axis masks per tuple
            first, second = masks[axes[0]], masks[axes[1]]
            for u, w in tuples:
                table |= first[u] & second[w]
            return table
        for tup in tuples:
            bits = self.full
            for axis, value in zip(axes, tup):
                bits &= masks[axis][value]
            table |= bits
        return table

    def equality_table(self, axis_a: int, axis_b: int) -> int:
        if axis_a == axis_b:
            return self.full
        table = 0
        for v in range(self.m):
            table |= self._axis_masks[axis_a][v] & self._axis_masks[axis_b][v]
        return table

    # -- quantifiers ----------------------------------------------------------

    def exists(self, table: int, axis: int) -> int:
        """OR of the axis slices, taken at digit 0 and spread along the axis."""
        shifts, zero, spread = self._fold[axis]
        bits = table
        for shift in shifts:
            bits |= table >> shift
        return (bits & zero) * spread

    def forall(self, table: int, axis: int) -> int:
        """AND of the axis slices, taken at digit 0 and spread along the axis."""
        shifts, zero, spread = self._fold[axis]
        bits = table
        for shift in shifts:
            bits &= table >> shift
        return (bits & zero) * spread
