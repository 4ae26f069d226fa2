"""Hypothesis strategies for or-NRA types and values.

Strategies are deliberately small-biased: the interesting invariants
(coherence, duplicate collapse, bounds) already show up at width <= 3 and
depth <= 3, and normal forms grow exponentially.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.types.kinds import (
    BOOL,
    INT,
    OrSetType,
    ProdType,
    SetType,
    Type,
)
from repro.values.values import (
    Atom,
    OrSetValue,
    Pair,
    SetValue,
    Value,
    boolean,
    vorset,
    vpair,
    vset,
)

__all__ = [
    "base_types",
    "object_types",
    "orset_types",
    "value_of",
    "typed_values",
    "typed_orset_values",
    "cpu_bound_designs",
]

base_types = st.sampled_from([INT, BOOL])


def object_types(max_depth: int = 3, allow_orset: bool = True) -> st.SearchStrategy[Type]:
    """Random object types up to *max_depth*."""
    extend_choices = [
        lambda c: st.tuples(c, c).map(lambda p: ProdType(*p)),
        lambda c: c.map(SetType),
    ]
    if allow_orset:
        extend_choices.append(lambda c: c.map(OrSetType))

    def extend(children: st.SearchStrategy[Type]) -> st.SearchStrategy[Type]:
        return st.one_of(*[make(children) for make in extend_choices])

    strategy: st.SearchStrategy[Type] = base_types
    for _ in range(max_depth - 1):
        strategy = st.one_of(base_types, extend(strategy))
    return strategy


def orset_types(max_depth: int = 3) -> st.SearchStrategy[Type]:
    """Types guaranteed to mention the or-set constructor."""
    from repro.types.kinds import contains_orset

    return object_types(max_depth).filter(contains_orset)


def _atoms(t: Type) -> st.SearchStrategy[Value]:
    if t == BOOL:
        return st.booleans().map(boolean)
    return st.integers(min_value=0, max_value=5).map(lambda i: Atom("int", i))


def value_of(
    t: Type, max_width: int = 3, min_width: int = 0
) -> st.SearchStrategy[Value]:
    """Random values of a fixed type *t*."""
    if isinstance(t, ProdType):
        return st.tuples(
            value_of(t.left, max_width, min_width),
            value_of(t.right, max_width, min_width),
        ).map(lambda p: Pair(*p))
    if isinstance(t, SetType):
        return st.lists(
            value_of(t.elem, max_width, min_width),
            min_size=min_width,
            max_size=max_width,
        ).map(SetValue)
    if isinstance(t, OrSetType):
        return st.lists(
            value_of(t.elem, max_width, min_width),
            min_size=min_width,
            max_size=max_width,
        ).map(OrSetValue)
    return _atoms(t)


def typed_values(
    max_depth: int = 3, max_width: int = 3, min_width: int = 0
) -> st.SearchStrategy[tuple[Value, Type]]:
    """Random ``(value, type)`` pairs."""
    return object_types(max_depth).flatmap(
        lambda t: st.tuples(value_of(t, max_width, min_width), st.just(t))
    )


def typed_orset_values(
    max_depth: int = 3, max_width: int = 3, min_width: int = 0
) -> st.SearchStrategy[tuple[Value, Type]]:
    """Random ``(value, type)`` pairs whose type mentions or-sets."""
    return orset_types(max_depth).flatmap(
        lambda t: st.tuples(value_of(t, max_width, min_width), st.just(t))
    )


def cpu_bound_designs(members: int, width: int = 6) -> Value:
    """A set of *members* independent designs with ``2^width`` worlds each.

    The shape of ``benchmarks/bench_serve.py``'s CPU-bound input: under
    ``map(normalize)`` every member carries real work, so this is the
    wide spine ``backend="auto"`` ships to the process pool.
    """

    def design(m: int) -> Value:
        base = 1000 * m
        choices = (vorset(base + 10 * i, base + 10 * i + 5) for i in range(1, width + 1))
        return vpair(vset(*choices), vorset(1, 2))

    return vset(*(design(m) for m in range(members)))
