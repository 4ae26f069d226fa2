"""Seeded inputs and eager reference answers for the four workloads.

Every workload is a list of operations ``{"kind", "program", "value"}``
in the JSON value encoding of :mod:`repro.io`, built from ``--seed``
alone.  ``kind`` is ``run`` (``io.run_json`` / an NDJSON run frame),
``count`` (``io.count_worlds_json`` / an ``op: count`` frame),
``certain`` (``io.certain_json``) or ``possible`` (``engine.possible``).

References are computed here with the eager backend (or, for world
counts past enumeration, the Section 6 closed form), outside any timed
region, and compared as canonical JSON.
"""

from __future__ import annotations

import json
import random

from repro import io
from repro.core.costs import tight_family
from repro.engine import Engine, estimate_value
from repro.gen import random_orset_value, random_type, random_value
from repro.lang.parser import parse_morphism
from repro.types.kinds import OrSetType, SetType, contains_orset
from repro.values.values import Atom, OrSetValue, Pair, SetValue

#: Eager-only engine for references: its own plan cache and arena, so
#: computing references never warms the caches a measured call uses.
_REFERENCE = Engine()

SHIPPED_PROGRAMS = (
    "normalize",
    "alpha",
    "or_mu",
    "ortoset",
    "ormap(ortoset)",
    "map(ortoset)",
    "or_mu o ormap(settoor)",
    "map(normalize)",
    "ormap(normalize) o alpha",
    "mu o map(ortoset)",
)

#: One probe request per TCP workload: a fixed first answer, so set-up
#: time does not depend on the seed.
PROBE_PROGRAM = "normalize"
PROBE_VALUE = io.value_to_json(
    SetValue([OrSetValue([Atom("int", 1), Atom("int", 2)]), OrSetValue([Atom("int", 3)])])
)


def canonical(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _leaf_type(rng: random.Random):
    """A small element type: an atom, a pair or a set (depth <= 2)."""
    return random_type(rng, max_depth=2, allow_orset=False)


def _typed_input(program: str, rng: random.Random):
    """A small value (depth <= 3, width <= 3) of a type *program* accepts."""
    t = _leaf_type(rng)
    if program == "normalize":
        while True:
            v, _ = random_orset_value(rng, max_depth=3, max_width=3, min_width=1)
            if estimate_value(v).worlds <= 256:
                return v
    if program in ("alpha", "map(ortoset)", "ormap(normalize) o alpha", "mu o map(ortoset)"):
        shape = SetType(OrSetType(t))
    elif program in ("or_mu", "ormap(ortoset)"):
        shape = OrSetType(OrSetType(t))
    elif program == "ortoset":
        shape = OrSetType(t)
    elif program == "or_mu o ormap(settoor)":
        shape = OrSetType(SetType(t))
    elif program == "map(normalize)":
        inner = random_type(rng, max_depth=2)
        while not contains_orset(inner):
            inner = random_type(rng, max_depth=2)
        shape = SetType(inner)
    else:
        raise ValueError(program)
    return random_value(shape, rng, max_width=3, min_width=1)


def interactive_ops(seed: int, count: int = 2000) -> list[dict]:
    """Small distinct values under the ten shipped program texts."""
    rng = random.Random(seed)
    ops, seen = [], set()
    while len(ops) < count:
        program = SHIPPED_PROGRAMS[len(ops) % len(SHIPPED_PROGRAMS)]
        value = io.value_to_json(_typed_input(program, rng))
        key = (program, canonical(value))
        if key in seen:
            continue
        seen.add(key)
        ops.append({"kind": "run", "program": program, "value": value})
    rng.shuffle(ops)
    return ops


#: Program templates for ``burst``.  Each takes a constant ``n``; with
#: ~2000 constants per template the tail of texts is far larger than the
#: 512-entry parse memo and the 256-plan cache.
BURST_TEMPLATES = (
    "ormap((id, K({n}))) o alpha",
    "ormap(map((id, K({n})))) o alpha",
    "map(ormap((K({n}), id)))",
    "(normalize, K({n}))",
    "ormap(map(K({n}))) o alpha",
)
BURST_CONSTANTS = 2000
BURST_INPUTS = 200


def _zipf_sampler(rng: random.Random, n: int, s: float):
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    order = list(range(n))
    rng.shuffle(order)

    def draw(k: int) -> list[int]:
        return [order[i] for i in rng.choices(range(n), weights=weights, k=k)]

    return draw


def burst_ops(seed: int, count: int) -> list[dict]:
    """*count* requests: Zipf-skewed inputs and a Zipf long tail of texts.

    Inputs are sets of three or-sets of two ints (``{<int>}``, eight
    worlds), which every template accepts; the templates take turns,
    each with a Zipf-drawn constant.  About one frame in ten is
    ``op: count``.
    """
    rng = random.Random(seed)
    inputs = []
    for _ in range(BURST_INPUTS):
        members = [
            OrSetValue(Atom("int", v) for v in rng.sample(range(12), 2))
            for _ in range(3)
        ]
        inputs.append(io.value_to_json(SetValue(members)))
    pick_input = _zipf_sampler(rng, len(inputs), 1.1)(count)
    pick_constant = _zipf_sampler(rng, BURST_CONSTANTS, 1.0)(count)
    ops = []
    for i, (vi, n) in enumerate(zip(pick_input, pick_constant, strict=True)):
        if rng.random() < 0.1:
            ops.append({"kind": "count", "program": "normalize", "value": inputs[vi]})
        else:
            text = BURST_TEMPLATES[i % len(BURST_TEMPLATES)].format(n=n)
            ops.append({"kind": "run", "program": text, "value": inputs[vi]})
    return ops


def _design(components: int, candidates: int, rng: random.Random) -> SetValue:
    """A Section 1/4 design template ``{component * <module * int>}``."""
    rows = []
    for c in range(components):
        choices = [
            Pair(Atom("module", f"m{c}_{j}"), Atom("int", rng.randrange(10, 200)))
            for j in range(candidates)
        ]
        rows.append(Pair(Atom("component", f"c{c}"), OrSetValue(choices)))
    return SetValue(rows)


def _small_families(width: int, rng: random.Random) -> SetValue:
    """*width* members, alternately two- and three-member tight families
    ``{<..>}``, over atoms numbered from a seeded base."""
    members, atom = [], rng.randrange(1_000_000)
    for index in range(width):
        ors = []
        for _ in range(2 + index % 2):
            ors.append(OrSetValue(Atom("int", atom + j) for j in range(3)))
            atom += 3
        members.append(SetValue(ors))
    return SetValue(members)


def _flat(width: int, rng: random.Random) -> SetValue:
    base = rng.randrange(1_000_000)
    return SetValue(Atom("int", base + i) for i in range(width))


#: Below WIDE_SPINE/FUSED_MIN_SPINE (32), between, and past
#: PROCESS_NORM_SIZE (2^16) estimated work.
BULK_WIDTHS = (16, 1000, 5000)


def bulk_ops(seed: int) -> list[dict]:
    """Wide values under structural chains, per-member expansions and
    design normalization, on both sides of the backend thresholds."""
    rng = random.Random(seed)
    ops = []
    for width in BULK_WIDTHS + (10_000,):
        flat = io.value_to_json(_flat(width, rng))
        for program in ("map((id, id))", "map(pi_1) o map((id, id))", "map(K(7))"):
            ops.append({"kind": "run", "program": program, "value": flat})
    for width in BULK_WIDTHS:
        family = io.value_to_json(tight_family(width)[0])
        for program in (
            "map(normalize)",
            "mu o map(ortoset)",
            "map(ortoset) o map(settoor) o map(ortoset)",
        ):
            ops.append({"kind": "run", "program": program, "value": family})
        nested = io.value_to_json(_small_families(width // 4 or 4, rng))
        ops.append({"kind": "run", "program": "map(alpha)", "value": nested})
    for components, candidates in ((4, 2), (6, 3), (7, 3)):
        design = io.value_to_json(_design(components, candidates, rng))
        ops.append({"kind": "run", "program": "normalize", "value": design})
    rng.shuffle(ops)
    return ops


#: Tight-family sizes: 3^k worlds either side of SYMBOLIC_WORLDS (2^8),
#: then well past enumeration.
WORLDS_K = (3, 5, 6, 19, 26, 33, 40, 44)


#: Candidates per key in a repair: its world count is the product, so
#: the sizes are fixed and the seed picks only the candidate values.
REPAIR_WIDTHS = (1, 2, 3, 2, 1, 2, 3, 2, 2)


def _repair(keys: int, rng: random.Random) -> SetValue:
    """Key repairs: per key, an or-set of candidate tuples ``(key, val)``.

    Values come from a small domain, so atoms are shared across keys and
    the injectivity certificate fails.  Keys with one candidate are
    consistent, so certain answers are non-empty.
    """
    groups = []
    for key in range(keys):
        vals = rng.sample(range(6), REPAIR_WIDTHS[key])
        groups.append(
            OrSetValue(Pair(Atom("int", key), Atom("int", v)) for v in vals)
        )
    return SetValue(groups)


def worlds_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for k in WORLDS_K:
        value = io.value_to_json(tight_family(k)[0])
        for kind in ("count", "certain", "possible"):
            ops.append({"kind": kind, "program": "normalize", "value": value, "k": k})
    for keys in (5, 6, 7, 8, 9):
        value = io.value_to_json(_repair(keys, rng))
        for kind in ("count", "certain", "possible"):
            ops.append({"kind": kind, "program": "normalize", "value": value})
    rng.shuffle(ops)
    return ops


# -- reference answers ---------------------------------------------------------


def reference(op: dict) -> object:
    """The eager (or closed-form) answer to *op*, as JSON."""
    kind, program = op["kind"], op["program"]
    # The parser proper, not io's memo: references leave it cold.
    morphism = parse_morphism(program)
    value = io.value_from_json(op["value"])
    k = op.get("k")
    if k is not None and 3**k > 3**8:
        # Section 6 closed form: normalize over the tight family has 3^k
        # worlds, none shared by all of them, and every atom in some.
        if kind == "count":
            return 3**k
        if kind == "certain":
            return {"set": []}
        atoms = [a for member in value.elems for a in member.elems]
        return io.value_to_json(SetValue(atoms))
    if kind == "run":
        result = _REFERENCE.run(morphism, value, backend="eager", intern=False)
        return io.value_to_json(result)
    if kind == "count":
        worlds = _REFERENCE.possibilities(morphism, value, backend="eager", intern=False)
        return len(set(worlds))
    if kind == "certain":
        result = _REFERENCE.certain(morphism, value, backend="eager", intern=False)
        return io.value_to_json(result)
    if kind == "possible":
        result = _REFERENCE.possible(morphism, value, backend="eager", intern=False)
        return io.value_to_json(result)
    raise ValueError(kind)

