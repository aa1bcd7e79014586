from __future__ import annotations

import json

import pytest
from hypothesis import example, given, strategies as st

from uniline import structures
from uniline.structures import (
    FiniteStructure,
    Signature,
    StructureError,
    parse_structure,
    render_structure,
    render_structure_json,
)

CHAIN3_TEXT = """\
signature
  lt/2
universe
  a b c
relations
  lt: (a,b) (b,c) (a,c)
"""


def test_parse_chain3_text(chain3):
    assert parse_structure(CHAIN3_TEXT) == chain3


def test_parse_preserves_element_order():
    text = CHAIN3_TEXT.replace("a b c", "c b a")
    structure = parse_structure(text)
    assert structure.universe == ("c", "b", "a")


def test_arity_mismatch_reports_location():
    bad = CHAIN3_TEXT.replace("(a,b)", "(a,b,c)")
    with pytest.raises(StructureError, match="arity mismatch"):
        parse_structure(bad)


def test_unknown_element_rejected():
    bad = CHAIN3_TEXT.replace("(a,b)", "(a,z)")
    with pytest.raises(StructureError, match="unknown element"):
        parse_structure(bad)


def test_least_offender_named():
    wrong_arity = CHAIN3_TEXT.replace("(a,b) (b,c) (a,c)", "(c,a,b) (b,c) (b,a,c) (c)")
    with pytest.raises(StructureError, match=r"got tuple \('b', 'a', 'c'\)"):
        parse_structure(wrong_arity)
    unknown = CHAIN3_TEXT.replace("(a,b) (b,c) (a,c)", "(a,z) (y,b) (x,w)")
    with pytest.raises(StructureError, match="unknown element 'w'"):
        parse_structure(unknown)


def test_duplicate_universe_element_rejected():
    bad = CHAIN3_TEXT.replace("a b c", "a b b")
    with pytest.raises(StructureError, match="duplicate universe element"):
        parse_structure(bad)


def test_unknown_relation_rejected():
    bad = CHAIN3_TEXT.replace("lt:", "gt:")
    with pytest.raises(StructureError, match="unknown relation"):
        parse_structure(bad)


def test_malformed_syntax_reports_line():
    with pytest.raises(StructureError, match="line 1"):
        parse_structure("garbage before sections\nsignature\n")


def test_empty_universe_rejected():
    with pytest.raises(StructureError, match="non-empty"):
        parse_structure("signature\n  lt/2\nuniverse\nrelations\n  lt:\n")


def test_empty_relations_allowed(empty3):
    text = "signature\n  e/2\nuniverse\n  a b c\nrelations\n  e:\n"
    assert parse_structure(text) == empty3


def test_relations_section_optional(empty3):
    assert parse_structure("signature\n  e/2\nuniverse\n  a b c\n") == empty3


def test_round_trip_text(chain3, cycle3, empty4):
    for structure in (chain3, cycle3, empty4):
        assert parse_structure(render_structure(structure)) == structure


def test_round_trip_json(chain3, cycle3, empty4):
    for structure in (chain3, cycle3, empty4):
        assert parse_structure(render_structure_json(structure)) == structure


def test_text_rendering_is_stable(chain3):
    once = render_structure(chain3)
    assert render_structure(parse_structure(once)) == once


def test_json_rendering_is_stable(chain3):
    once = render_structure_json(chain3)
    assert render_structure_json(parse_structure(once)) == once


def test_parsing_is_deterministic():
    assert parse_structure(CHAIN3_TEXT) == parse_structure(CHAIN3_TEXT)


def test_signature_invariants():
    with pytest.raises(StructureError, match="duplicate relation"):
        Signature((("e", 2), ("e", 1)))
    with pytest.raises(StructureError, match="arity"):
        Signature((("e", 0),))


def test_build_rejects_unknown_relation():
    with pytest.raises(StructureError, match="unknown relation"):
        FiniteStructure.build(Signature.of(e=2), ["a"], {"f": []})


@pytest.mark.parametrize("count", [0, 1, 3])
def test_tuple_set_count_must_match_signature(count):
    with pytest.raises(StructureError, match="one tuple set per signature relation"):
        FiniteStructure(Signature.of(p=1, e=2), ("a",), (frozenset(),) * count)


def test_tuples_of_unknown_name_is_key_error(chain3):
    with pytest.raises(KeyError):
        chain3.tuples("nope")
    with pytest.raises(KeyError):
        chain3.signature.arity("nope")
    assert "nope" not in chain3.signature


def test_signature_index_takes_no_part_in_equality():
    """A signature is a cache key, so two built apart are equal and hash
    alike; the index only names each relation's position."""
    first, second = Signature.of(p=1, e=2), Signature((("p", 1), ("e", 2)))
    assert first == second and hash(first) == hash(second) and first is not second
    assert first.index == {"p": 0, "e": 1}
    assert (first.arity("e"), "e" in first, "q" in first) == (2, True, False)
    assert first != Signature.of(e=2, p=1)
    assert "index" not in repr(first)


@given(st.data())
def test_build_keeps_each_relation_at_its_signature_index(data):
    relations = data.draw(st.permutations([("p", 1), ("e", 2), ("t", 3)]))[: data.draw(st.integers(2, 3))]
    universe = ["a", "b", "c"][: data.draw(st.integers(1, 3))]
    element = st.sampled_from(universe)
    sets = {
        name: data.draw(st.frozensets(st.tuples(*[element] * arity), max_size=4)) for name, arity in relations
    }
    # the mapping lists the relations in the reverse of signature order
    structure = FiniteStructure.build(Signature(tuple(relations)), universe, dict(reversed(sets.items())))
    assert structure.interpretation == tuple(sets.values())
    for name, tuples in sets.items():
        assert structure.tuples(name) == tuples
    assert parse_structure(render_structure(structure)) == structure
    assert parse_structure(render_structure_json(structure)) == structure


def test_comments_and_blank_lines_ignored(chain3):
    noisy = "# header\n\n" + CHAIN3_TEXT.replace("universe", "# mid\nuniverse")
    assert parse_structure(noisy) == chain3


NAMES = st.sampled_from(["a", "b", "c", "R", "lt", "x1", "_", "1a", "a b", "", "(a)", "²"])
ARITIES = st.integers(-1, 3) | st.sampled_from([True, 1.5, "2", None])
SECTION_LINES = st.sampled_from(
    ["signature", "universe", "relations", "# note", "", "R/1", "lt/2 R/1", "R/0", "R/²", "R/x", "R",
     "a b c", "a a", "R: (a)", "lt: (a,b) (b,c)", "lt: (a,,b)", "lt: ()", "lt: (a,b", "R: (z)", "S: (a)"]
)
STRUCTURE_TEXT = st.lists(SECTION_LINES, max_size=12).map("\n".join) | st.text(max_size=80)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | NAMES,
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(NAMES, sub, max_size=3),
    max_leaves=8,
)
JSON_DOCUMENTS = st.fixed_dictionaries(
    {
        "signature": st.dictionaries(NAMES, ARITIES, max_size=3),
        "universe": st.lists(NAMES, max_size=4),
        "relations": st.dictionaries(NAMES, st.lists(st.lists(NAMES, max_size=3), max_size=3), max_size=3),
    }
) | st.dictionaries(st.sampled_from(["signature", "universe", "relations"]), JSON_VALUES)
STRUCTURE_INPUT = STRUCTURE_TEXT | JSON_DOCUMENTS.map(json.dumps) | JSON_VALUES.map(json.dumps)


@given(STRUCTURE_INPUT)
@example("signature\n  R/" + "1" * 5000 + "\nuniverse\n  a\n")
@example('{"signature": {"R": 1' + "0" * 5000 + '}, "universe": ["a"], "relations": {}}')
@example('{"signature": ' + "[" * 100_000)
def test_any_input_round_trips_or_is_a_structure_error(text):
    try:
        structure = parse_structure(text)
    except StructureError:
        return
    rendered = render_structure(structure)
    assert parse_structure(rendered) == structure
    assert render_structure(parse_structure(rendered)) == rendered
    assert parse_structure(render_structure_json(structure)) == structure


BASE_JSON = {"signature": {"e": 2}, "universe": ["a", "b"], "relations": {"e": [["a", "b"]]}}


def _json(**changes) -> str:
    return json.dumps({**BASE_JSON, **changes})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"signature": }', "invalid JSON: Expecting value: line 1 column 15 (char 14)"),
        ('{"signature": {}, "universe": ["a"]}', "JSON structure missing key 'relations'"),
        (_json(signature=["e", 2]), "JSON 'signature' must map relation names to integer arities"),
        (_json(signature={"e": True}), "JSON 'signature' must map relation names to integer arities"),
        (_json(universe="a b"), "JSON 'universe' must be a list of strings"),
        (_json(relations=[["a", "b"]]), "JSON 'relations' must be an object"),
        (_json(relations={"f": []}), "unknown relation 'f' in 'relations'"),
        (_json(relations={"e": ["ab"]}), "JSON relation 'e' must be a list of lists of strings"),
        # only text that begins with '{' is read as JSON
        ('["signature"]', "line 1: content before any section header: '[\"signature\"]'"),
        ("signature\n  e/2\nsignature\n", "line 3: duplicate section 'signature'"),
        ("# note\n\ne/2\nsignature\n", "line 3: content before any section header: 'e/2'"),
        ("signature\n  e/2\n", "missing section 'universe'"),
        ("universe\n  a\n", "missing section 'signature'"),
        ("signature\n  e/2 e2\nuniverse\n  a\n", "line 2: expected name/arity, got 'e2'"),
        ("signature\n  e/x\nuniverse\n  a\n", "line 2: arity must be a positive integer in 'e/x'"),
        ("signature\n  e/²\nuniverse\n  a\n", "line 2: arity must be a positive integer in 'e/²'"),
        # an arity is ASCII digits alone: no other script's digits, no underscore, no sign
        ("signature\n  e/\u0663\nuniverse\n  a\n", "line 2: arity must be a positive integer in 'e/\u0663'"),
        ("signature\n  e/1_0\nuniverse\n  a\n", "line 2: arity must be a positive integer in 'e/1_0'"),
        ("signature\n  e/+2\nuniverse\n  a\n", "line 2: arity must be a positive integer in 'e/+2'"),
        ("signature\n  e/0\nuniverse\n  a\n", "relation 'e' must have arity >= 1"),
        ("signature\n  e/2\nuniverse\n  a\nrelations\n  e (a,a)\n", "line 6: expected 'name: (tuple) ...', got 'e (a,a)'"),
        ("signature\n  e/2\nuniverse\n  a\nrelations\n  f: (a,a)\n", "line 6: unknown relation 'f'"),
        ("signature\n  e/2\nuniverse\n  a\nrelations\n  e: (a,a) a\n", "line 6: unparsable relation entries 'a'"),
        ("signature\n  e/2\nuniverse\n  a\nrelations\n  e: (a,,a)\n", "line 6: malformed tuple (a,,a)"),
        ("signature\n  e/2\nuniverse\n  a\nrelations\n  e: ( )\n", "line 6: malformed tuple ( )"),
    ],
)
def test_every_error_message(text, message):
    with pytest.raises(StructureError) as excinfo:
        parse_structure(text)
    assert str(excinfo.value) == message


def test_json_that_is_not_an_object():
    # parse_structure reads text as JSON only when it begins with '{', so
    # only a direct call reaches this message
    with pytest.raises(StructureError, match=r"^JSON structure must be an object$"):
        structures._parse_json("[1]")
