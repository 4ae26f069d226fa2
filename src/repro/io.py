"""Input/output facilities (Section 7's OR-SML package features).

Values and types round-trip through two formats:

* the paper's *text* notation via :mod:`repro.lang.parser` and
  :func:`repro.values.format_value`;
* a plain-JSON structure for interchange with other tooling.

JSON encoding: atoms become ``{"atom": base, "value": v}``; pairs
``{"pair": [a, b]}``; sets ``{"set": [...]}``; or-sets ``{"orset": [...]}``;
bags ``{"bag": [...]}``; unit ``{"unit": true}``; variant injections
``{"inl": ...}`` / ``{"inr": ...}``.

The query entry points (``run_*``, ``count_worlds_*``, ``certain_*``)
hold :func:`repro.engine.gcpause.gc_paused` from decode to encode: the
values they build are acyclic, so the cyclic collector's passes over
them are pure overhead.
"""

from __future__ import annotations

import json
from functools import lru_cache

from repro.engine.gcpause import gc_paused
from repro.errors import OrNRAValueError
from repro.types.kinds import Type
from repro.types.parse import format_type, parse_type
from repro.values.values import (
    UNIT_VALUE,
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    UnitValue,
    Value,
    Variant,
    format_value,
)

__all__ = [
    "value_to_json",
    "value_from_json",
    "MAX_VALUE_DEPTH",
    "dumps_value",
    "loads_value",
    "dumps_type",
    "loads_type",
    "value_to_text",
    "value_from_text",
    "parsed_morphism",
    "program_digest",
    "run_text",
    "run_json",
    "run_text_many",
    "run_json_many",
    "count_worlds_text",
    "count_worlds_json",
    "certain_text",
    "certain_json",
]


def value_to_json(v: Value) -> object:
    """Encode *v* as plain JSON-serializable data."""
    if isinstance(v, UnitValue):
        return {"unit": True}
    if isinstance(v, Atom):
        return {"atom": v.base, "value": v.value}
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.fst), value_to_json(v.snd)]}
    if isinstance(v, SetValue):
        return {"set": [value_to_json(e) for e in v.elems]}
    if isinstance(v, OrSetValue):
        return {"orset": [value_to_json(e) for e in v.elems]}
    if isinstance(v, BagValue):
        return {"bag": [value_to_json(e) for e in v.elems]}
    if isinstance(v, Variant):
        key = "inl" if v.side == 0 else "inr"
        return {key: value_to_json(v.payload)}
    raise OrNRAValueError(f"not a value: {v!r}")


#: Deepest value nesting :func:`value_from_json` accepts.  The engine
#: recurses per level (normalizing a set nested ~160 deep already
#: exhausts Python's default recursion limit), so deeper input is
#: refused at the boundary with a structured error.
MAX_VALUE_DEPTH = 100


def _json_elements(data: dict, key: str, depth: int) -> list[Value]:
    elems = data[key]
    if not isinstance(elems, list):
        raise OrNRAValueError(
            f"malformed value JSON: {key!r} expects a list of elements, got {elems!r}"
        )
    return [_decode(e, depth) for e in elems]


def value_from_json(data: object) -> Value:
    """Decode the JSON structure produced by :func:`value_to_json`.

    Every malformed fragment — a ``"pair"`` that is not a two-element
    list, a non-list ``"set"``/``"orset"``/``"bag"``, an ``"atom"``
    without a ``"value"``, nesting deeper than :data:`MAX_VALUE_DEPTH` —
    raises :class:`~repro.errors.OrNRAValueError` naming the offending
    fragment, never a bare ``ValueError``, ``TypeError`` or
    ``RecursionError`` from the decoding plumbing.
    """
    return _decode(data, 0)


def _decode(data: object, depth: int) -> Value:
    if depth > MAX_VALUE_DEPTH:
        raise OrNRAValueError(
            f"malformed value JSON: nested deeper than {MAX_VALUE_DEPTH} levels"
        )
    depth += 1
    if not isinstance(data, dict):
        raise OrNRAValueError(f"malformed value JSON: {data!r}")
    if "unit" in data:
        return UNIT_VALUE
    if "atom" in data:
        if "value" not in data:
            raise OrNRAValueError(f"malformed value JSON: atom without a value: {data!r}")
        payload = data["value"]
        if not isinstance(payload, (bool, int, float, str)):
            raise OrNRAValueError(
                f"malformed value JSON: atom value must be a scalar, got {payload!r}"
            )
        return Atom(str(data["atom"]), payload)
    if "pair" in data:
        sides = data["pair"]
        if not isinstance(sides, list) or len(sides) != 2:
            raise OrNRAValueError(
                f"malformed value JSON: 'pair' expects [left, right], got {sides!r}"
            )
        return Pair(_decode(sides[0], depth), _decode(sides[1], depth))
    if "set" in data:
        return SetValue(_json_elements(data, "set", depth))
    if "orset" in data:
        return OrSetValue(_json_elements(data, "orset", depth))
    if "bag" in data:
        return BagValue(_json_elements(data, "bag", depth))
    if "inl" in data:
        return Variant(0, _decode(data["inl"], depth))
    if "inr" in data:
        return Variant(1, _decode(data["inr"], depth))
    raise OrNRAValueError(f"malformed value JSON: {data!r}")


def dumps_value(v: Value) -> str:
    """Serialize *v* to a JSON string."""
    return json.dumps(value_to_json(v), sort_keys=True)


def loads_value(text: str) -> Value:
    """Deserialize a value from :func:`dumps_value` output."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OrNRAValueError(f"malformed value JSON: {exc}") from exc
    return value_from_json(data)


def dumps_type(t: Type) -> str:
    """Serialize a type in the concrete syntax."""
    return format_type(t)


def loads_type(text: str) -> Type:
    """Parse a type from its concrete syntax."""
    return parse_type(text)


def value_to_text(v: Value) -> str:
    """The paper-notation rendering of *v* (parsable back)."""
    return format_value(v)


def value_from_text(text: str) -> Value:
    """Parse a value from the paper notation."""
    from repro.lang.parser import parse_value

    return parse_value(text)


@lru_cache(maxsize=512)
def _parse_morphism_cached(text: str):
    from repro.lang.parser import parse_morphism

    return parse_morphism(text)


def parsed_morphism(program):
    """Resolve *program* — surface-syntax text or a Morphism — to a Morphism.

    Parses are memoized (an LRU over the program text), which is what
    lets a serving loop re-submit the same query string thousands of
    times without re-parsing: the text maps to the *same* morphism
    object, so the engine's plan cache hits too.  Morphism instances
    pass through untouched — the hook the async front-end and the REPL
    use to serve pre-resolved (named) programs.
    """
    from repro.lang.morphisms import Morphism

    if isinstance(program, Morphism):
        return program
    return _parse_morphism_cached(program)


def program_digest(program) -> str:
    """A stable hex digest of a program's text — the cache-affinity key.

    The multi-process serving front-end (:mod:`repro.serve.net`) routes
    requests to workers by this digest, so every request for one program
    lands on the worker whose plan cache, parse memo and interner are
    already hot for it.  *program* is surface-syntax text or a
    pre-resolved :class:`~repro.lang.morphisms.Morphism` (digested by its
    canonical ``describe()`` rendering, so text and resolved forms of the
    same program agree).
    """
    import hashlib

    from repro.lang.morphisms import Morphism

    text = program.describe() if isinstance(program, Morphism) else str(program)
    return hashlib.sha1(text.encode("utf-8", "replace")).hexdigest()


def _deadline_scope(timeout: float | None):
    """A deadline context for the evaluation helpers.

    ``timeout=None`` (the default) inherits whatever deadline is already
    ambient — notably the serving layer's per-request deadline — so a
    nested helper call never silently *extends* a request's budget.
    """
    from repro.engine import Deadline, deadline_scope

    deadline = Deadline.after(timeout) if timeout is not None else None
    if deadline is None:
        from contextlib import nullcontext

        return nullcontext()
    return deadline_scope(deadline)


def run_text(
    morphism_text: str,
    value_text: str,
    backend: str = "eager",
    timeout: float | None = None,
) -> str:
    """Parse, compile and run a query; both sides in the paper notation.

    The batch-mode counterpart of the REPL's ``apply``: the program goes
    through the engine (optimizer passes, plan compilation), so repeated
    calls share compiled plans.  Values are *not* interned — these
    helpers serve arbitrary one-shot inputs, and the default engine's
    arena pins everything it interns for the process lifetime.
    *timeout* (seconds) bounds the evaluation: past it, the engine's
    cooperative checkpoints raise :class:`~repro.errors.DeadlineExceeded`.

    >>> run_text("ormap(map(pi_1)) o alpha", "{<(1, 2), (3, 4)>}")
    '<{1}, {3}>'
    """
    from repro.engine import run
    from repro.lang.parser import parse_value

    with gc_paused():
        with _deadline_scope(timeout):
            result = run(
                parsed_morphism(morphism_text),
                parse_value(value_text),
                backend=backend,
                intern=False,
            )
        return format_value(result)


def run_json(
    morphism_text: str,
    value_json: object,
    backend: str = "eager",
    timeout: float | None = None,
) -> object:
    """Run a query over the JSON value encoding (interchange endpoint).

    The program is given in the surface syntax, the input and output in
    the :func:`value_to_json` structure.  *timeout* bounds the
    evaluation (see :func:`run_text`).
    """
    from repro.engine import run

    with gc_paused():
        with _deadline_scope(timeout):
            result = run(
                parsed_morphism(morphism_text),
                value_from_json(value_json),
                backend=backend,
                intern=False,
            )
        return value_to_json(result)


def count_worlds_text(
    morphism_text: str, value_text: str, backend: str = "auto"
) -> int:
    """Exact world count of a query's output; input in the paper notation.

    The batch-mode counterpart of the REPL's ``count``.  With the
    default ``backend="auto"`` the engine routes supported plans to the
    symbolic backend (:mod:`repro.engine.symbolic`), which counts
    without enumerating — astronomically many worlds come back in
    milliseconds.

    >>> count_worlds_text("normalize", "{<1, 2>, <2, 3>}")
    4
    """
    from repro.engine import count_worlds
    from repro.lang.parser import parse_value

    with gc_paused():
        return count_worlds(
            parsed_morphism(morphism_text),
            parse_value(value_text),
            backend=backend,
            intern=False,
        )


def count_worlds_json(
    morphism_text: str, value_json: object, backend: str = "auto"
) -> int:
    """:func:`count_worlds_text` over the JSON value encoding."""
    from repro.engine import count_worlds

    with gc_paused():
        return count_worlds(
            parsed_morphism(morphism_text),
            value_from_json(value_json),
            backend=backend,
            intern=False,
        )


def certain_text(morphism_text: str, value_text: str, backend: str = "auto") -> str:
    """The certain answers of a query — elements in *every* world of the
    output — in the paper notation (the REPL's ``certain``).

    >>> certain_text("normalize", "{<1>, <2, 3>}")
    '{1}'
    """
    from repro.engine import certain
    from repro.lang.parser import parse_value

    with gc_paused():
        result = certain(
            parsed_morphism(morphism_text),
            parse_value(value_text),
            backend=backend,
            intern=False,
        )
        return format_value(result)


def certain_json(
    morphism_text: str, value_json: object, backend: str = "auto"
) -> object:
    """:func:`certain_text` over the JSON value encoding."""
    from repro.engine import certain

    with gc_paused():
        result = certain(
            parsed_morphism(morphism_text),
            value_from_json(value_json),
            backend=backend,
            intern=False,
        )
        return value_to_json(result)


def run_text_many(
    morphism_text,
    value_texts: list[str],
    backend: str = "eager",
    max_workers: int | None = None,
    timeout: float | None = None,
) -> list[str]:
    """Batched :func:`run_text`: parse and compile once, fan out.

    Unlike a loop of ``run_text`` calls, the batch shares one
    *batch-scoped* interner — structurally equal inputs (and their
    memoized normal forms) are computed once — and nothing stays pinned
    in the default engine's arena after the call returns.  *morphism_text*
    may also be a pre-resolved Morphism; *max_workers* bounds the batch's
    fan-out (``0``/``1`` for strictly sequential); *timeout* bounds the
    whole batch's evaluation (see :func:`run_text`).
    """
    from repro.engine import DEFAULT_ENGINE, Interner
    from repro.lang.parser import parse_value

    with gc_paused():
        with _deadline_scope(timeout):
            results = DEFAULT_ENGINE.run_many(
                parsed_morphism(morphism_text),
                [parse_value(text) for text in value_texts],
                backend=backend,
                interner=Interner(),
                max_workers=max_workers,
            )
        return [format_value(r) for r in results]


def run_json_many(
    morphism_text,
    values_json: list,
    backend: str = "eager",
    max_workers: int | None = None,
    timeout: float | None = None,
) -> list[object]:
    """Batched :func:`run_json`: parse and compile once, fan out.

    The batch endpoint for serving many worlds of one query — and the
    function the async front-end (:mod:`repro.serve`) fans each
    micro-batch into: the program is parsed and compiled once (parses
    are LRU-memoized across calls via :func:`parsed_morphism`, so a
    serving loop pays the parse once per query text, not per batch),
    structurally equal inputs are computed once (one batch-scoped
    interner shares memoized normal forms across the whole batch), and
    distinct inputs fan out across worker threads — or whole worker
    processes when ``backend="process"``.  Results come back in input
    order; nothing is pinned in the default engine's arena afterwards.
    *morphism_text* may also be a pre-resolved Morphism; *max_workers*
    bounds the batch's fan-out (``0``/``1`` for strictly sequential);
    *timeout* bounds the whole batch's evaluation (see :func:`run_text`).
    """
    from repro.engine import DEFAULT_ENGINE, Interner

    with gc_paused():
        with _deadline_scope(timeout):
            results = DEFAULT_ENGINE.run_many(
                parsed_morphism(morphism_text),
                [value_from_json(v) for v in values_json],
                backend=backend,
                interner=Interner(),
                max_workers=max_workers,
            )
        return [value_to_json(r) for r in results]
