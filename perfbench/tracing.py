"""Layer spans and counters recorded from outside the program.

Wrappers go on the public functions of the ``uniline`` modules, at the
attribute each caller looks the function up through.  A module global is the
module attribute, so calls inside a module are wrapped too: ``orbit_partition``
reaches the wrapped ``automorphisms``.  A layer is a module.  Its self time is
the busy time of its wrapped calls minus the busy time of the wrapped calls
made inside them.  Module imports are calls of their module as well, so every
layer is charged for what it costs a process to load it.

Boundary calls (deciders, commands, scans, corpus builds, imports) are kept
as span records: id, name, op id, parent span id, start, end, busy.  Small
functions called thousands of times per op (rational parsing, field
arithmetic) count toward self times without a record of their own, which
keeps the record list and the tracing cost small.

The formula stream (``uniformity.semantic_items``) is one span per stream
whose busy time is the sum of its ``next()`` calls, so that the scan loop in
``uniformity`` between items stays in uniformity's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.abc
import importlib.machinery
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "corpus",
    "structures",
    "autgroup",
    "formulas",
    "tables",
    "uniformity",
    "ordline",
    "fieldgen",
    "cyclic",
    "cuts",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.records: list[tuple] = []
        # one frame per open call: [busy seconds of its child calls, span id]
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = "setup"
        self.active = True
        self.next_id = 0
        self.aut_order = 0  # order of the group most recently returned

    def _enter(self, record: bool) -> list:
        if record:
            span_id = self.next_id
            self.next_id += 1
        else:
            span_id = self.stack[-1][1] if self.stack else -1
        frame = [0.0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        busy = end - start
        self.self_s[name] += busy - frame[0]
        if self.stack:
            self.stack[-1][0] += busy

    def _parent_id(self) -> int:
        return self.stack[-2][1] if len(self.stack) > 1 else -1

    def call(self, name: str, fn, args, kwargs, record: bool = True):
        frame = self._enter(record)
        parent = self._parent_id()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._exit(name, frame, start, end)
            if record:
                self.records.append((frame[1], name, self.op, parent, start, end, end - start))

    def wrap(self, fn, name: str, count=None, record: bool = True):
        """``fn`` traced as ``name``; ``count(tracer, args, result)`` records
        counters after a call that returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.call(name, fn, args, kwargs, record)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def stream(self, iterator, name: str, counter: str):
        """Yield from ``iterator``, charging each ``next()`` to one span."""
        if not self.active:
            yield from iterator
            return
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][1] if self.stack else -1
        op = self.op  # the stream may be closed after the op has ended
        first = last = perf_counter()
        busy = 0.0
        try:
            while True:
                frame = [0.0, span_id]
                self.stack.append(frame)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    last = perf_counter()
                    busy += last - start
                    self._exit(name, frame, start, last)
                self.counts[counter] += 1
                yield item
        finally:
            self.records.append((span_id, name, op, parent, first, last, busy))

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def write_records(self, path) -> None:
        fields = ("id", "name", "op", "parent", "start", "end", "busy")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")


# -- module imports --------------------------------------------------------------


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Times the execution of each ``uniline.<layer>`` module as a call of its layer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, module = fullname.partition(".")
        if package != "uniline" or module not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        execute = spec.loader.exec_module
        tracer = self.tracer
        spec.loader.exec_module = lambda mod: tracer.call(f"{module}.import", execute, (mod,), {})
        return spec


def trace_imports(tracer: Tracer) -> None:
    """Must run before ``uniline`` is first imported."""
    if any(name == "uniline" or name.startswith("uniline.") for name in sys.modules):
        raise RuntimeError("uniline is already imported; its import spans would be missing")
    sys.meta_path.insert(0, _ImportSpans(tracer))


# -- wrappers and counters ---------------------------------------------------------


def _add(name: str, amount):
    def count(tracer: Tracer, args, result) -> None:
        tracer.counts[name] += amount(args, result)

    return count


def _one(name: str):
    return _add(name, lambda args, result: 1)


def _count_automorphisms(tracer: Tracer, args, result) -> None:
    tracer.counts["autgroup.aut_calls"] += 1
    tracer.counts["autgroup.perms"] += len(result)
    tracer.aut_order = len(result)


def _count_orbits(tracer: Tracer, args, result) -> None:
    carrier = sum(len(cls) for cls in result.classes)
    tracer.counts["autgroup.orbit_moves"] += tracer.aut_order * carrier


def _count_verdict(tracer: Tracer, args, verdict) -> None:
    if verdict.uniform:
        if verdict.mode == "schema":
            tracer.counts["uniformity.full_scans"] += 1
    else:
        tracer.counts["uniformity.counterexamples"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where their callers find them."""
    from uniline import autgroup, cli, corpus, cuts, cyclic, fieldgen, ordline, structures
    from uniline import tables, uniformity

    def patch(owner, attr: str, name: str, count=None, record: bool = True) -> None:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count, record))

    def leaf(owner, attr: str, count=None) -> None:
        layer = owner.__name__.rsplit(".", 1)[-1]
        patch(owner, attr, f"{layer}.{attr}", count, record=False)

    structure_count = _add("corpus.structures", lambda args, result: len(result))
    patch(corpus, "digraphs_up_to_iso", "corpus.digraphs_up_to_iso", structure_count)
    patch(corpus, "crafted_structures", "corpus.crafted_structures", structure_count)

    # cli binds the structure functions by name
    patch(cli, "parse_structure", "structures.parse_structure", _one("structures.parse_calls"))
    for owner in (cli, structures):
        for attr in ("render_structure", "render_structure_json"):
            patch(owner, attr, f"structures.{attr}", record=False)

    patch(autgroup, "automorphisms", "autgroup.automorphisms", _count_automorphisms)
    patch(autgroup, "orbit_partition", "autgroup.orbit_partition", _count_orbits)

    # uniformity binds semantic_items by name; time each next()
    items = uniformity.semantic_items
    uniformity.semantic_items = lambda *args: tracer.stream(
        items(*args), "formulas.semantic_items", "formulas.items"
    )
    patch(cli, "render_formula", "formulas.render_formula", record=False)

    space = tables.space
    tables.space = tracer.wrap(space, "tables.space", record=False)
    tables.space.cache_info = space.cache_info

    for attr in ("check_uniformity_schema", "check_uniformity_orbits"):
        patch(uniformity, attr, f"uniformity.{attr}", _count_verdict)

    for attr in ("parse_affine", "parse_rational", "format_rational", "classify_displacement",
                 "preserves_construct", "tile_line", "tiling_span", "factor_through_shift",
                 "shift_measure"):
        leaf(ordline, attr, _one("ordline.calls"))

    patch(fieldgen, "verify_field_axioms", "fieldgen.verify_field_axioms",
          _add("fieldgen.samples", lambda args, result: result.sample_count))
    for attr in ("localization_iso", "stretch_image", "loc_add", "loc_sub", "loc_mul",
                 "loc_div", "loc_neg", "loc_inv"):
        leaf(fieldgen, attr)

    patch(cyclic, "mobius_orientation", "cyclic.mobius_orientation",
          _add("cyclic.triples", lambda args, result: len(args[1])))
    for attr in ("parse_proj_point", "format_proj_point", "cyclic_orient", "linearize_at",
                 "is_infinite"):
        leaf(cyclic, attr)
    cyclic.LinearizedOrder.sort = tracer.wrap(
        cyclic.LinearizedOrder.sort, "cyclic.LinearizedOrder.sort", record=False
    )

    def counting(constructor):
        # the oracle's membership test is the query the cut search pays for
        def build(*args, **kwargs):
            oracle = constructor(*args, **kwargs)
            member = oracle.member

            def query(value):
                if tracer.active:
                    tracer.counts["cuts.oracle_queries"] += 1
                return member(value)

            return dataclasses.replace(oracle, member=query)

        return build

    for attr in ("oracle_lt", "oracle_le", "oracle_sq_lt"):
        setattr(cuts, attr, tracer.wrap(counting(getattr(cuts, attr)), f"cuts.{attr}", record=False))
    for attr in ("upper_set", "lower_set"):
        leaf(cuts, attr)
    for attr in ("galois_closure_check", "classify_cut", "connectivity_probe"):
        patch(cuts, attr, f"cuts.{attr}")

    patch(cli, "run", "cli.run")
    patch(cli, "render_output", "cli.render_output")
