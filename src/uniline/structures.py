"""Finite relational structures and their text/JSON interchange formats.

A structure is a finite universe of named elements together with set-valued
interpretations of the relation symbols of a signature.  Signatures carry
relation symbols only: no constants, no function symbols.  Structures are
immutable values; every operation in this package treats them as such.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .ordline import DIGITS

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class StructureError(ValueError):
    """Malformed structure input or a broken structure invariant."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Signature:
    """Relation names with arities, in declaration order; ``index`` maps each
    name, in that order, to its position, and takes no part in equality."""

    relations: tuple[tuple[str, int], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for name, arity in self.relations:
            if not _IDENT_RE.fullmatch(name):
                raise StructureError(f"invalid relation name {name!r}")
            if name in index:
                raise StructureError(f"duplicate relation {name!r}")
            if arity < 1:
                raise StructureError(f"relation {name!r} must have arity >= 1")
            index[name] = len(index)
        object.__setattr__(self, "index", index)

    @classmethod
    def of(cls, **relations: int) -> "Signature":
        return cls(tuple(relations.items()))

    def arity(self, name: str) -> int:
        return self.relations[self.index[name]][1]

    def __contains__(self, name: str) -> bool:
        return name in self.index


@functools.lru_cache(maxsize=64)
def _positions(universe: tuple[str, ...]) -> dict[str, int]:
    """Each element's position in a valid universe.  Cached, because the
    corpus builds thousands of structures over one universe tuple per size;
    callers only read the map."""
    if not universe:
        raise StructureError("universe must be non-empty")
    positions: dict[str, int] = {}
    for i, element in enumerate(universe):
        if not _IDENT_RE.fullmatch(element):
            raise StructureError(f"invalid element identifier {element!r}")
        if element in positions:
            raise StructureError(f"duplicate universe element {element!r}")
        positions[element] = i
    return positions


@dataclass(frozen=True)
class FiniteStructure:
    """A finite universe with one tuple set per relation symbol.

    ``universe`` keeps declaration order; that order is the canonical
    enumeration order used by every deterministic search downstream.
    ``interpretation[i]`` is the frozenset of element tuples of the relation
    ``signature.relations[i]``; the names live in the signature alone.
    """

    signature: Signature
    universe: tuple[str, ...]
    interpretation: tuple[frozenset[tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        positions = _positions(self.universe)
        if len(self.interpretation) != len(self.signature.relations):
            raise StructureError("interpretation must hold one tuple set per signature relation")
        # the least offender is named, so that the error does not depend on
        # the iteration order of a frozenset
        for tuples, (name, arity) in zip(self.interpretation, self.signature.relations):
            if not set(map(len, tuples)) <= {arity}:
                tup = min(t for t in tuples if len(t) != arity)
                raise StructureError(f"arity mismatch: relation {name!r} expects {arity}, got tuple {tup}")
            unknown = set(itertools.chain.from_iterable(tuples)).difference(positions)
            if unknown:
                raise StructureError(f"tuple for {name!r} references unknown element {min(unknown)!r}")

    @classmethod
    def build(
        cls,
        signature: Signature,
        universe: Sequence[str],
        relations: Mapping[str, Iterable[Sequence[str]]] | None = None,
    ) -> "FiniteStructure":
        """Construct a structure, filling in empty relations for omitted names."""
        relations = dict(relations or {})
        for name in relations:
            if name not in signature:
                raise StructureError(f"unknown relation {name!r}")
        interpretation = tuple(frozenset(tuple(t) for t in relations.get(name, ())) for name in signature.index)
        return cls(signature, tuple(universe), interpretation)

    def tuples(self, name: str) -> frozenset[tuple[str, ...]]:
        return self.interpretation[self.signature.index[name]]

    def position(self, element: str) -> int:
        return self.universe.index(element)

    def size(self) -> int:
        return len(self.universe)


def elements_of(structure: FiniteStructure, positions: Iterable[int]) -> tuple[str, ...]:
    return tuple(structure.universe[i] for i in positions)


def _canonical_tuples(structure: FiniteStructure, name: str) -> list[tuple[str, ...]]:
    position = _positions(structure.universe).__getitem__
    return sorted(structure.tuples(name), key=lambda t: tuple(map(position, t)))


def render_structure(structure: FiniteStructure) -> str:
    """Canonical text rendering; ``parse_structure`` round-trips it exactly."""
    lines = ["signature"]
    for name, arity in structure.signature.relations:
        lines.append(f"  {name}/{arity}")
    lines.append("universe")
    lines.append("  " + " ".join(structure.universe))
    lines.append("relations")
    for name, _ in structure.signature.relations:
        tuples = " ".join("(" + ",".join(t) + ")" for t in _canonical_tuples(structure, name))
        lines.append(f"  {name}:" + (" " + tuples if tuples else ""))
    return "\n".join(lines) + "\n"


def render_structure_json(structure: FiniteStructure) -> str:
    """Canonical JSON rendering (object key order is significant)."""
    doc = {
        "signature": {name: arity for name, arity in structure.signature.relations},
        "universe": list(structure.universe),
        "relations": {
            name: [list(t) for t in _canonical_tuples(structure, name)]
            for name, _ in structure.signature.relations
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_structure(text: str) -> FiniteStructure:
    """Parse either interchange format, auto-detected.

    Text beginning with ``{`` is treated as JSON, anything else as the
    line-oriented format.  Blank lines and ``#`` comments are ignored in the
    text format.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_json(text: str) -> FiniteStructure:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a number over 4300 digits, or deep nesting
        raise StructureError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise StructureError("JSON structure must be an object")
    for key in ("signature", "universe", "relations"):
        if key not in doc:
            raise StructureError(f"JSON structure missing key {key!r}")
    sig_obj = doc["signature"]
    # bool is a subclass of int, but ``true`` is not an arity
    if not isinstance(sig_obj, dict) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in sig_obj.values()
    ):
        raise StructureError("JSON 'signature' must map relation names to integer arities")
    signature = Signature(tuple(sig_obj.items()))
    universe = doc["universe"]
    if not isinstance(universe, list) or not all(isinstance(e, str) for e in universe):
        raise StructureError("JSON 'universe' must be a list of strings")
    rel_obj = doc["relations"]
    if not isinstance(rel_obj, dict):
        raise StructureError("JSON 'relations' must be an object")
    for name, tuples in rel_obj.items():
        if name not in signature:
            raise StructureError(f"unknown relation {name!r} in 'relations'")
        if not isinstance(tuples, list) or not all(
            isinstance(t, list) and all(isinstance(e, str) for e in t) for t in tuples
        ):
            raise StructureError(f"JSON relation {name!r} must be a list of lists of strings")
    return FiniteStructure.build(signature, universe, rel_obj)


_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_text(text: str) -> FiniteStructure:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("signature", "universe", "relations"):
            if line in sections:
                raise StructureError(f"duplicate section {line!r}", lineno)
            sections[line] = []
            current = line
            continue
        if current is None:
            raise StructureError(f"content before any section header: {line!r}", lineno)
        sections[current].append((lineno, line))

    for required in ("signature", "universe"):
        if required not in sections:
            raise StructureError(f"missing section {required!r}")

    relations: list[tuple[str, int]] = []
    for lineno, line in sections["signature"]:
        for entry in line.split():
            if "/" not in entry:
                raise StructureError(f"expected name/arity, got {entry!r}", lineno)
            name, _, arity_text = entry.partition("/")
            try:
                if not re.fullmatch(DIGITS, arity_text):
                    raise ValueError
                relations.append((name, int(arity_text)))
            except ValueError:  # also over 4300 digits
                raise StructureError(f"arity must be a positive integer in {entry!r}", lineno) from None
    signature = Signature(tuple(relations))

    universe: list[str] = []
    for lineno, line in sections["universe"]:
        universe.extend(line.split())

    tuples: dict[str, list[tuple[str, ...]]] = {}
    for lineno, line in sections.get("relations", []):
        name, colon, rest = line.partition(":")
        name = name.strip()
        if not colon:
            raise StructureError(f"expected 'name: (tuple) ...', got {line!r}", lineno)
        if name not in signature:
            raise StructureError(f"unknown relation {name!r}", lineno)
        body = rest.strip()
        leftovers = _TUPLE_RE.sub("", body).strip()
        if leftovers:
            raise StructureError(f"unparsable relation entries {leftovers!r}", lineno)
        for group in _TUPLE_RE.findall(body):
            parts = tuple(p.strip() for p in group.split(",")) if group.strip() else ()
            if not parts or any(not p for p in parts):
                raise StructureError(f"malformed tuple ({group})", lineno)
            tuples.setdefault(name, []).append(parts)

    return FiniteStructure.build(signature, universe, tuples)
