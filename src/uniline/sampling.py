"""Deterministic pseudo-random samplers shared by property checks and the CLI.

Everything is driven by a seeded :class:`random.Random`, so identical seeds
give identical samples on every platform and run.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0
_MAX_NUMERATOR = 60
_MAX_DENOMINATOR = 12


def rng(seed: int = DEFAULT_SEED) -> random.Random:
    return random.Random(seed)


def rationals(rand: random.Random, count: int) -> list[Fraction]:
    return [
        Fraction(rand.randint(-_MAX_NUMERATOR, _MAX_NUMERATOR), rand.randint(1, _MAX_DENOMINATOR))
        for _ in range(count)
    ]

