from __future__ import annotations

import itertools
import random

import pytest

from uniline.autgroup import ResourceCapError, automorphisms, orbit_partition
from uniline.structures import FiniteStructure, Signature
from uniline.uniformity import check_uniformity_orbits

from oracles import brute_force_automorphisms


def test_chain3_trivial_group(chain3):
    assert automorphisms(chain3) == [(0, 1, 2)]


def test_empty3_full_symmetry(empty3):
    group = automorphisms(empty3)
    assert len(group) == 6
    assert group == list(itertools.permutations(range(3)))


def test_cycle3_rotations(cycle3):
    group = automorphisms(cycle3)
    assert group == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_optimized_equals_brute_force(chain3, cycle3, empty4):
    structures = [chain3, cycle3, empty4]
    structures.append(
        FiniteStructure.build(
            Signature.of(e=2),
            ["a", "b", "c", "d"],
            {"e": [("a", "b"), ("b", "a"), ("c", "d")]},
        )
    )
    for structure in structures:
        assert automorphisms(structure) == brute_force_automorphisms(structure)


def random_mixed_structure(rng: random.Random) -> FiniteStructure:
    """Two relations of arities drawn from 1-3 on 1-6 elements.

    Half the time the tuples are closed under the powers of a random
    permutation, which is then an automorphism, so large groups and
    positions with equal candidate keys occur often."""
    size = rng.randint(1, 6)
    universe = [f"u{i}" for i in range(size)]
    arities = [rng.randint(1, 3) for _ in range(2)]
    shift = list(range(size))
    if rng.random() < 0.5:
        rng.shuffle(shift)
    relations = {}
    for name, arity in zip(("p", "q"), arities):
        tuples = set()
        for _ in range(rng.randint(0, 4)):
            tup = tuple(rng.randrange(size) for _ in range(arity))
            for _ in range(size):
                tuples.add(tup)
                tup = tuple(shift[i] for i in tup)
        relations[name] = [tuple(universe[i] for i in tup) for tup in tuples]
    signature = Signature((("p", arities[0]), ("q", arities[1])))
    return FiniteStructure.build(signature, universe, relations)


def test_mixed_arity_signatures_equal_brute_force():
    rng = random.Random(2024)
    nontrivial = 0
    for _ in range(300):
        structure = random_mixed_structure(rng)
        group = automorphisms(structure)
        assert group == brute_force_automorphisms(structure)
        assert group[0] == tuple(range(structure.size()))
        nontrivial += len(group) > 1
    assert nontrivial >= 100


def test_group_axioms(cycle3, empty4):
    for structure in (cycle3, empty4):
        group = automorphisms(structure)
        members = set(group)
        positions = range(structure.size())
        assert tuple(positions) in members
        for g in group:
            assert tuple(sorted(positions, key=g.__getitem__)) in members  # g's inverse
            for h in group:
                assert tuple(g[i] for i in h) in members  # g after h


def test_orbit_partition_equals_brute_force_orbits():
    # every n and both modes: each class is the orbit of its members under
    # the brute-force group, and class_of finds it from each member, and in
    # subsets mode from the member reversed
    rng = random.Random(26)
    for _ in range(150):
        structure = random_mixed_structure(rng)
        group = brute_force_automorphisms(structure)
        size = structure.size()
        for n in range(1, size + 1):
            for mode, carrier in (
                ("subsets", itertools.combinations(range(size), n)),
                ("tuples", itertools.permutations(range(size), n)),
            ):
                orbits = set()
                for member in carrier:
                    images = {tuple(g[i] for i in member) for g in group}
                    if mode == "subsets":
                        images = {tuple(sorted(image)) for image in images}
                    orbits.add(tuple(sorted(images)))
                partition = orbit_partition(structure, n, mode=mode)
                assert partition.classes == tuple(sorted(orbits))
                for cls in partition.classes:
                    for member in cls:
                        assert partition.class_of(member) is cls
                        if mode == "subsets":
                            assert partition.class_of(member[::-1]) is cls


def test_resource_cap():
    big = FiniteStructure.build(Signature.of(e=1), [f"v{i}" for i in range(11)], {})
    with pytest.raises(ResourceCapError):
        automorphisms(big)


def test_orbits_chain3_singletons(chain3):
    partition = orbit_partition(chain3, 1)
    assert partition.classes == (((0,),), ((1,),), ((2,),))


def test_orbits_empty4_pairs_single_class(empty4):
    partition = orbit_partition(empty4, 2, mode="subsets")
    assert len(partition.classes) == 1
    assert len(partition.classes[0]) == 6


def test_orbits_cycle3_tuples(cycle3):
    partition = orbit_partition(cycle3, 2, mode="tuples")
    # hand-computed rotation action: arc tuples vs reversed-arc tuples
    assert partition.classes == (
        ((0, 1), (1, 2), (2, 0)),
        ((0, 2), (1, 0), (2, 1)),
    )


def test_orbit_classes_closed_under_group(cycle3):
    group = automorphisms(cycle3)
    partition = orbit_partition(cycle3, 2, mode="tuples")
    for cls in partition.classes:
        members = set(cls)
        for member in cls:
            for g in group:
                assert tuple(g[i] for i in member) in members


def test_orbit_carrier_covered(empty4):
    partition = orbit_partition(empty4, 2, mode="tuples")
    covered = {t for cls in partition.classes for t in cls}
    assert covered == set(itertools.permutations(range(4), 2))


def test_n_set_transitive(chain3, cycle3, empty4):
    assert check_uniformity_orbits(empty4, 2).uniform is True
    assert check_uniformity_orbits(chain3, 1).uniform is False
    assert check_uniformity_orbits(cycle3, 1).uniform is True


def test_orbit_range_validation(chain3):
    with pytest.raises(ValueError):
        orbit_partition(chain3, 0)
    with pytest.raises(ValueError):
        orbit_partition(chain3, 4)


def test_class_of(cycle3):
    partition = orbit_partition(cycle3, 2, mode="tuples")
    assert partition.class_of((1, 2)) == ((0, 1), (1, 2), (2, 0))
