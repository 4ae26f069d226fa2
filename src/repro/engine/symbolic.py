"""The symbolic backend: answer world queries without enumerating worlds.

Every other backend materializes or iterates possible worlds, so the
Section 6 lower bound (``3^(n/3)`` worlds on the tight family) is a wall
for all of them — streaming short-circuits the *first* witness but
counting, certainty and emptiness still touch every world.  This backend
goes around the wall with knowledge compilation:

1. **trace** — :func:`trace_worlds` walks the plan's spine carrying a
   *surrogate* value whose world set provably equals the world set of
   the program's output.  Cheap structural steps (coercions, flattens,
   etas) run for real; expansion steps are *skipped*, because they are
   world-set-preserving: Theorem 4.2 (coherence) gives
   ``worlds(normalize(x)) = worlds(x)``, the same argument covers
   ``alpha`` and ``ormap(normalize)``, and skipping them is exactly what
   makes the surrogate linear-sized where the output is exponential.
2. **compile** — :class:`ChoiceSpace` encodes the surrogate's or-set
   choices as CNF over *binary* selector variables: an ``n``-branch
   or-site gets ``ceil(log2 n)`` bit variables (so even a
   thousand-branch site costs ten variables and a handful of
   range clauses, never a quadratic exactly-one ladder), guard clauses
   pin every site beneath an unselected branch to its canonical first
   pattern (so irrelevant choices do not multiply the count), and an
   empty or-site (``< >`` denotes no worlds) contributes a clause
   forbidding its guarding branch outright.  The CNF's models are in
   bijection with the value's world-generating choice vectors, and
   :func:`repro.sat.ddnnf.compile_ddnnf` turns it into a d-DNNF.
3. **query** — on the circuit, satisfiability answers ``exists`` in
   O(1), lazy model enumeration streams (decoded, deduplicated) worlds,
   the model count gives ``count_worlds`` in circuit-linear time
   whenever the space's *injectivity certificate* proves models map
   one-to-one onto distinct worlds.  Certain/possible membership needs
   no circuit and no solver: :func:`world_members` recurses on the
   surrogate itself — a set's members choose their worlds independently,
   so an element is certain iff it is some member's only world and
   possible iff it is some member's world; an or-set intersects or
   unites its branches' answers.

Everything degrades soundly: unsupported plans fall back to the eager
enumeration path and non-injective spaces to deduplicated enumeration,
so :meth:`SymbolicBackend.execute`/``possibilities`` stay conformant
with every other backend on every program (the differential suite runs
them against the direct interpreter), while supported queries at
``>=10^9`` estimated worlds finish in milliseconds.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.normalize import Normalize
from repro.errors import OrNRATypeError, OrNRAValueError
from repro.lang.orset_ops import Alpha, OrMap
from repro.sat.cnf import CNF, Clause
from repro.sat.ddnnf import DDNNF, compile_ddnnf
from repro.sat.dpll import dpll_sat, dpll_solve
from repro.values.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    UnitValue,
    Value,
    Variant,
)

from repro.engine.analysis import CHEAP_REAL_OPS, plan_facts
from repro.engine.backends import BACKENDS, Backend, EagerBackend
from repro.engine.deadline import checkpoint
from repro.engine.interning import Interner
from repro.engine.plan import Plan

__all__ = [
    "SymbolicBackend",
    "SymbolicUnsupported",
    "ChoiceSpace",
    "trace_worlds",
    "world_members",
    "plan_supports_symbolic",
]


class SymbolicUnsupported(Exception):
    """This (plan, value) has no world-preserving symbolic trace."""


# -- the spine trace ---------------------------------------------------------

#: Structural steps cheap enough to run for real during the trace: each
#: is linear in its input and, because the carried value *is* the true
#: intermediate up to that point, running it preserves the invariant
#: (and raises exactly the errors eager execution would raise).  The
#: table lives in :mod:`repro.engine.analysis` (the canonical home of
#: the operator class tables); the trace keeps its historical name.
_CHEAP_REAL = CHEAP_REAL_OPS


def _body_is_world_preserving(plan: Plan, idx: int) -> bool:
    """Is the map body a chain of ``normalize``/``id`` steps only?"""
    return plan_facts(plan).node_facts[idx].world_preserving


def _spine_steps(plan: Plan) -> list[int]:
    top = plan.nodes[plan.root]
    return list(top.kids) if top.op == "chain" else [plan.root]


def plan_supports_symbolic(plan: Plan) -> bool:
    """Can :func:`trace_worlds` possibly handle *plan*?  (Kind mismatches
    are only discovered against a concrete value, and fall back then.)
    An adapter over :func:`repro.engine.analysis.plan_facts` — the
    backend selector asks per call, and reads the memoized record."""
    return plan_facts(plan).symbolic_ok


def trace_worlds(plan: Plan, value: Value) -> Value:
    """A surrogate value with ``worlds(surrogate) == worlds(run(plan, value))``.

    Walks the top-level spine.  While the carried value is the true
    intermediate, cheap structural ops run for real.  The first skipped
    expansion step (``normalize`` / ``alpha`` / ``ormap(normalize)``)
    makes the carried value *virtual*: still world-equivalent, no longer
    structurally the intermediate — from there only further
    world-preserving steps are allowed.  Anything else raises
    :exc:`SymbolicUnsupported` and the caller falls back to eager.
    """
    current = value
    virtual = False
    for idx in _spine_steps(plan):
        node = plan.nodes[idx]
        if node.op == "id":
            continue
        src = node.source
        if node.op == "leaf" and isinstance(src, Normalize):
            # Theorem 4.2: worlds(normalize(x)) == worlds(x).  Skip.
            virtual = True
            continue
        if node.op == "map" and isinstance(src, OrMap) and _body_is_world_preserving(
            plan, node.kids[0]
        ):
            # <x_1,...> -> <normalize(x_1),...>: the union of the
            # members' world sets is unchanged member by member.
            if not isinstance(current, OrSetValue):
                raise SymbolicUnsupported("ormap over a non-or-set")
            virtual = True
            continue
        if node.op == "leaf" and isinstance(src, Alpha):
            # alpha : {<s>} -> <{s}> enumerates component-wise choices —
            # precisely worlds() restricted one level, so the world set
            # of the output equals the world set of the input set.
            if not (
                isinstance(current, SetValue)
                and all(isinstance(e, OrSetValue) for e in current.elems)
            ):
                raise SymbolicUnsupported("alpha over a non-{<s>} value")
            virtual = True
            continue
        if node.op == "leaf" and isinstance(src, _CHEAP_REAL):
            if virtual:
                raise SymbolicUnsupported(
                    "structural op after a skipped expansion step"
                )
            current = src.apply(current)
            continue
        raise SymbolicUnsupported(f"unsupported spine step {node.op}")
    return current


# -- the choice space --------------------------------------------------------


class ChoiceSpace:
    """The CNF choice encoding of one value, with decoder and certificate.

    Each multi-branch or-site with ``n`` branches gets ``ceil(log2 n)``
    *bit* variables; the little-endian bit pattern picks the branch.
    Binary selectors keep wide or-sites linear where one-hot exactly-one
    constraints are quadratic — a 1000-branch site is 10 variables and a
    few clauses.  Clauses:

    * range clauses forbidding the unused patterns ``n .. 2^width - 1``
      (one clause per zero bit of ``n - 1``, standard lexicographic
      bound), so patterns are in bijection with branches;
    * guard clauses: a site's *guard* is the conjunction of bit literals
      selecting every enclosing or-branch on the path from the root.
      ``(bit -> g)`` for each guard literal ``g`` pins the site to its
      canonical all-zero pattern whenever any enclosing branch is not
      chosen, so irrelevant choices do not multiply the count.  (The
      guard must be the *whole* path condition: a site nested beneath a
      canonically-pinned branch is just as irrelevant as the pinned
      site itself.)
    * ``(~g_1 | ... | ~g_m)`` for an empty or-site (``< >`` has no
      worlds, so the branch leading to one is infeasible); an unguarded
      empty site contributes the empty clause — zero worlds.

    ``exact`` is the injectivity certificate: when it holds, CNF models
    are in bijection with *distinct* worlds and the d-DNNF model count
    is the exact world count.  When it fails (sibling branches sharing
    atoms can collapse two choices into one world), counting falls back
    to deduplicated enumeration — still correct, no longer sub-world.
    """

    def __init__(self, value: Value) -> None:
        self.value = value
        self._n_vars = 0
        self._clauses: list[Clause] = []
        self.root = self._build(value, ())
        self.exact = _injective(value)
        self._circuit: DDNNF | None = None

    # -- construction -------------------------------------------------------

    def _fresh(self) -> int:
        self._n_vars += 1
        return self._n_vars

    def _build(self, v: Value, guard: tuple[int, ...]):
        if isinstance(v, (Atom, UnitValue)):
            return ("leaf", v)
        if isinstance(v, Pair):
            return ("pair", self._build(v.fst, guard), self._build(v.snd, guard))
        if isinstance(v, Variant):
            return ("variant", v.side, self._build(v.payload, guard))
        if isinstance(v, (SetValue, BagValue)):
            kind = "set" if isinstance(v, SetValue) else "bag"
            return (kind, tuple(self._build(e, guard) for e in v.elems))
        if isinstance(v, OrSetValue):
            branches = v.elems
            if not branches:
                self._clauses.append(frozenset(-g for g in guard))
                return ("or", (), ())
            if len(branches) == 1:
                return ("or", (), (self._build(branches[0], guard),))
            n = len(branches)
            width = (n - 1).bit_length()
            bits = tuple(self._fresh() for _ in range(width))
            # Forbid patterns > n-1: one clause per zero bit of n-1, each
            # saying "not (agree with n-1 above position t and exceed it
            # at t)" — the lexicographic upper-bound encoding.
            top = n - 1
            for t in range(width):
                if (top >> t) & 1:
                    continue
                lits = [-bits[t]]
                for s in range(t + 1, width):
                    lits.append(-bits[s] if (top >> s) & 1 else bits[s])
                self._clauses.append(frozenset(lits))
            # Pin to the all-zero pattern when any enclosing branch is
            # not chosen: bit -> g for every guard literal.
            for bit in bits:
                for g in guard:
                    self._clauses.append(frozenset((-bit, g)))
            subs = tuple(
                self._build(branch, guard + _pattern(bits, i))
                for i, branch in enumerate(branches)
            )
            return ("or", bits, subs)
        raise OrNRAValueError(f"not a value: {v!r}")

    # -- the compiled artifacts ---------------------------------------------

    def cnf(self) -> CNF:
        return CNF(self._n_vars, tuple(self._clauses))

    def circuit(self) -> DDNNF:
        if self._circuit is None:
            self._circuit = compile_ddnnf(self.cnf())
        return self._circuit

    # -- decoding -----------------------------------------------------------

    def decode(self, model: dict[int, bool]) -> Value:
        """The world selected by the total *model* (mirrors ``iter_worlds``)."""

        def walk(node) -> Value:
            tag = node[0]
            if tag == "leaf":
                return node[1]
            if tag == "pair":
                return Pair(walk(node[1]), walk(node[2]))
            if tag == "variant":
                return Variant(node[1], walk(node[2]))
            if tag == "set":
                return SetValue(walk(e) for e in node[1])
            if tag == "bag":
                return BagValue(walk(e) for e in node[1])
            bits, subs = node[1], node[2]
            if not bits:
                return walk(subs[0])
            index = 0
            for t, bit in enumerate(bits):
                if model.get(bit):
                    index |= 1 << t
            return walk(subs[index if index < len(subs) else 0])

        return walk(self.root)

    # -- queries ------------------------------------------------------------

    def satisfiable(self) -> bool:
        if self._circuit is not None:
            return self._circuit.satisfiable()
        return dpll_sat(self.cnf())

    def iter_worlds(self) -> Iterator[Value]:
        """Distinct worlds, lazily.

        Once the circuit is compiled, enumeration walks its model paths.
        Before that it runs CDCL with blocking clauses — each next
        solution is one :func:`~repro.sat.dpll.dpll_solve` call, so the
        *first* witness never pays for knowledge compilation (the case
        that matters when a wide or-site makes the circuit expensive but
        a single model is easy).
        """
        if self._circuit is not None:
            yield from self._iter_circuit()
        else:
            yield from self._iter_cdcl()

    def _iter_circuit(self) -> Iterator[Value]:
        seen: set[Value] = set()
        for model in self.circuit().iter_models():
            checkpoint("symbolic model enumeration")
            world = self.decode(model)
            if world not in seen:
                seen.add(world)
                yield world

    def _iter_cdcl(self) -> Iterator[Value]:
        seen: set[Value] = set()
        clauses = list(self._clauses)
        n = self._n_vars
        while True:
            # One checkpoint per solver restart: each blocking-clause
            # round is a fresh CDCL solve, the natural boundary at which
            # a deadline can interrupt enumeration.
            checkpoint("symbolic solver restart")
            model = dpll_solve(CNF(n, tuple(clauses)))
            if model is None:
                return
            # The partial model stands for every completion over its
            # unassigned variables; expand them (lazily) so free bits
            # reach the decoder, then block the assigned core.
            free = [v for v in range(1, n + 1) if v not in model]
            for mask in range(1 << len(free)):
                filled = dict(model)
                for j, v in enumerate(free):
                    filled[v] = bool((mask >> j) & 1)
                world = self.decode(filled)
                if world not in seen:
                    seen.add(world)
                    yield world
            if not model:
                return
            clauses.append(
                frozenset(-v if positive else v for v, positive in model.items())
            )

    def count_worlds(self) -> int:
        """Exact ``|worlds(value)|`` — circuit-linear when ``exact``,
        deduplicated enumeration otherwise."""
        if self.exact:
            return self.circuit().model_count()
        self.circuit()  # exhaustive anyway; paths beat repeated solving
        return sum(1 for _ in self.iter_worlds())

    def certain_members(self) -> frozenset[Value]:
        """Elements present in *every* world (see :func:`world_members`)."""
        return world_members(self.value, certain=True)

    def possible_members(self) -> frozenset[Value]:
        """Elements present in *some* world (see :func:`world_members`)."""
        return world_members(self.value, certain=False)


def _pattern(bits: tuple[int, ...], index: int) -> tuple[int, ...]:
    """The bit-literal conjunction selecting branch *index* of a site."""
    return tuple(
        bit if (index >> t) & 1 else -bit for t, bit in enumerate(bits)
    )


# -- certain/possible by structural recursion --------------------------------


def world_members(value: Value, *, certain: bool) -> frozenset[Value]:
    """The elements of every (*certain*) or of some world of *value*.

    No solver and no world of *value* itself.  A set's worlds pick one
    world of each member, every member on its own, so an element is in
    some world iff it is a world of some member, and in every world iff
    it is the *only* world of some member (the block independence
    Koutris–Wijsen use for certain answers over key repairs).  An
    or-set's worlds are the union of its branches' worlds, so its answer
    intersects (certain) or unites (possible) the answers of the
    branches that have worlds.

    ``possible`` reads each member's worlds lazily, one at a time and
    with a deadline checkpoint per world; ``certain`` decides "exactly
    one world" structurally (:meth:`_WorldReader.sole`) and enumerates
    nothing unless a nested set could collapse several choices into one
    world.

    Raises :class:`~repro.errors.OrNRAValueError` when *value* has no
    worlds and :class:`~repro.errors.OrNRATypeError` when its worlds are
    not collections, as eager enumeration does.
    """
    found = _WorldReader().members(value, certain)
    if found is None:
        query = "certain" if certain else "possible"
        raise OrNRAValueError(f"{query}() of an inconsistent value (no worlds)")
    return found


_NO_WORLD = object()
_MANY_WORLDS = object()


class _WorldReader:
    """World-level reads of one value, lazy at every depth.

    :func:`repro.core.worlds.iter_worlds` materializes every world of a
    set's members before its first yield, so a doubly nested set builds
    its whole world set up front.  :meth:`worlds` instead advances an
    odometer over per-member generators: memory stays proportional to
    the value, and uninhabited branches are pruned (memoized by node),
    so the work between two yielded worlds is polynomial.
    """

    def __init__(self) -> None:
        # Keyed by id(): every node asked about is part of the value
        # being read, so it stays alive as long as the reader does.
        self._inhabited: dict[int, bool] = {}

    def members(self, v: Value, certain: bool) -> frozenset[Value] | None:
        """:func:`world_members` of *v*, or ``None`` when *v* has no worlds."""
        if isinstance(v, OrSetValue):
            result: frozenset[Value] | None = None
            for branch in v.elems:
                got = self.members(branch, certain)
                if got is None:
                    continue
                if result is None:
                    result = got
                else:
                    result = result & got if certain else result | got
                if certain and not result:
                    break
            return result
        if isinstance(v, (SetValue, BagValue)):
            found: set[Value] = set()
            for member in v.elems:
                if certain:
                    checkpoint("symbolic member")
                    sole = self.sole(member)
                    if sole is _NO_WORLD:
                        return None
                    if sole is not _MANY_WORLDS:
                        found.add(sole)
                    continue
                empty = True
                for world in self.worlds(member):
                    checkpoint("symbolic member world")
                    empty = False
                    found.add(world)
                if empty:
                    return None
            return frozenset(found)
        world = next(self.worlds(v), None)
        if world is None:
            return None
        return _world_elements(world)  # an atom, pair or variant: raises

    def sole(self, v: Value):
        """*v*'s only world, ``_NO_WORLD`` or ``_MANY_WORLDS``.

        Exact, by structural recursion.  A pair, variant or bag has one
        world iff each part has one; an or-set iff its inhabited
        branches share one.  A set can collapse: ``{<1, 2>, <1>, <2>}``
        has the single world ``{1, 2}``.  It has one world iff every world
        of its multi-world members is already the sole world of some
        member, checked by reading those members' worlds until one
        falls outside.
        """
        if isinstance(v, (Atom, UnitValue)):
            return v
        if isinstance(v, Pair):
            fst, snd = self.sole(v.fst), self.sole(v.snd)
            if fst is _NO_WORLD or snd is _NO_WORLD:
                return _NO_WORLD
            if fst is _MANY_WORLDS or snd is _MANY_WORLDS:
                return _MANY_WORLDS
            return Pair(fst, snd)
        if isinstance(v, Variant):
            payload = self.sole(v.payload)
            if payload is _NO_WORLD or payload is _MANY_WORLDS:
                return payload
            return Variant(v.side, payload)
        if isinstance(v, OrSetValue):
            only = _NO_WORLD
            for branch in v.elems:
                got = self.sole(branch)
                if got is _NO_WORLD:
                    continue
                if got is _MANY_WORLDS or (only is not _NO_WORLD and got != only):
                    return _MANY_WORLDS
                only = got
            return only
        if isinstance(v, (SetValue, BagValue)):
            parts = [self.sole(m) for m in v.elems]
            if any(p is _NO_WORLD for p in parts):
                return _NO_WORLD
            if isinstance(v, BagValue):
                if any(p is _MANY_WORLDS for p in parts):
                    return _MANY_WORLDS
                return BagValue(parts)
            fixed = {p for p in parts if p is not _MANY_WORLDS}
            for member, part in zip(v.elems, parts):
                if part is _MANY_WORLDS:
                    for world in self.worlds(member):
                        checkpoint("symbolic member world")
                        if world not in fixed:
                            return _MANY_WORLDS
            return SetValue(fixed)
        raise OrNRAValueError(f"not a value: {v!r}")

    def worlds(self, v: Value) -> Iterator[Value]:
        """``iter_worlds(v)``, lazily (may repeat)."""
        if self.inhabited(v):
            yield from self._walk(v)

    def inhabited(self, v: Value) -> bool:
        key = id(v)
        got = self._inhabited.get(key)
        if got is None:
            if isinstance(v, OrSetValue):
                got = any(self.inhabited(e) for e in v.elems)
            elif isinstance(v, (SetValue, BagValue)):
                got = all(self.inhabited(e) for e in v.elems)
            elif isinstance(v, Pair):
                got = self.inhabited(v.fst) and self.inhabited(v.snd)
            elif isinstance(v, Variant):
                got = self.inhabited(v.payload)
            else:
                got = True
            self._inhabited[key] = got
        return got

    def _walk(self, v: Value) -> Iterator[Value]:
        """The worlds of an inhabited *v*; every branch taken has one."""
        if isinstance(v, (Atom, UnitValue)):
            yield v
        elif isinstance(v, Pair):
            for fst in self._walk(v.fst):
                for snd in self._walk(v.snd):
                    yield Pair(fst, snd)
        elif isinstance(v, Variant):
            for payload in self._walk(v.payload):
                yield Variant(v.side, payload)
        elif isinstance(v, OrSetValue):
            for branch in v.elems:
                if self.inhabited(branch):
                    yield from self._walk(branch)
        elif isinstance(v, (SetValue, BagValue)):
            kind, members = type(v), v.elems
            readers = [self._walk(m) for m in members]
            picked = [next(r) for r in readers]
            yield kind(picked)
            while True:  # odometer: the last member varies fastest
                for i in reversed(range(len(members))):
                    world = next(readers[i], _NO_WORLD)
                    if world is not _NO_WORLD:
                        picked[i] = world
                        break
                    readers[i] = self._walk(members[i])
                    picked[i] = next(readers[i])
                else:
                    return
                yield kind(picked)
        else:
            raise OrNRAValueError(f"not a value: {v!r}")


# -- the injectivity certificate ---------------------------------------------


def _injective(v: Value) -> bool:
    """Do distinct canonical choice vectors yield distinct worlds?

    Sufficient structural conditions, checked in one traversal.  The
    analysis returns ``(injective, grounded, fixed, support)`` per
    sub-value: *grounded* — every world contains at least one atom;
    *fixed* — the sub-value is choice-free (it is its own single world);
    *support* — the atoms occurring anywhere below.  Two sibling
    positions can only collapse different choices into one world if
    their world sets intersect; fixed siblings are distinct canonical
    values (hence distinct worlds), and otherwise disjoint supports with
    at most one atom-free-capable sibling rule intersection out.
    Conservative: a ``False`` merely routes counting to enumeration.
    """

    def pairwise_ok(parts) -> bool:
        for i, (_, gi, fi, si) in enumerate(parts):
            for _, gj, fj, sj in parts[i + 1 :]:
                if fi and fj:
                    continue
                if si & sj:
                    return False
                if not gi and not gj:
                    return False
        return True

    def walk(v: Value):
        if isinstance(v, Atom):
            return True, True, True, frozenset((v,))
        if isinstance(v, UnitValue):
            return True, False, True, frozenset()
        if isinstance(v, Pair):
            ia, ga, fa, sa = walk(v.fst)
            ib, gb, fb, sb = walk(v.snd)
            return ia and ib, ga or gb, fa and fb, sa | sb
        if isinstance(v, Variant):
            i, g, f, s = walk(v.payload)
            return i, g, f, s
        if isinstance(v, OrSetValue):
            parts = [walk(e) for e in v.elems]
            inj = all(p[0] for p in parts) and pairwise_ok(parts)
            grounded = all(p[1] for p in parts)
            support = frozenset().union(*(p[3] for p in parts)) if parts else frozenset()
            return inj, grounded, not v.elems, support
        if isinstance(v, (SetValue, BagValue)):
            parts = [walk(e) for e in v.elems]
            inj = all(p[0] for p in parts) and pairwise_ok(parts)
            grounded = any(p[1] for p in parts)
            fixed = all(p[2] for p in parts)
            support = frozenset().union(*(p[3] for p in parts)) if parts else frozenset()
            return inj, grounded, fixed, support
        raise OrNRAValueError(f"not a value: {v!r}")

    injective, _grounded, fixed, _support = walk(v)
    return injective or fixed


# -- the backend -------------------------------------------------------------


class SymbolicBackend(Backend):
    """Knowledge-compilation execution for world queries.

    ``execute`` delegates to eager — a symbolic representation has
    nothing to add when the caller wants the materialized output value,
    and delegation keeps the backend conformant on arbitrary programs.
    The wins are the world-query methods: ``possibilities`` (lazy
    decoded model enumeration), :meth:`count_worlds` and :meth:`exists`
    on the compiled choice space, :meth:`certain` and :meth:`possible`
    by :func:`world_members` on the traced surrogate — all falling back
    to eager enumeration when the trace does not support the plan.
    """

    name = "symbolic"

    def __init__(self) -> None:
        self._eager = EagerBackend()

    def execute(
        self, plan: Plan, value: Value, interner: Interner | None = None
    ) -> Value:
        return self._eager.execute(plan, value, interner)

    def space(self, plan: Plan, value: Value) -> ChoiceSpace | None:
        """The compiled choice space, or ``None`` when unsupported."""
        try:
            return ChoiceSpace(trace_worlds(plan, value))
        except SymbolicUnsupported:
            return None

    def possibilities(
        self, plan: Plan, value: Value, interner: Interner | None = None
    ) -> Iterator[Value]:
        space = self.space(plan, value)
        if space is None:
            return self._eager.possibilities(plan, value, interner)
        return space.iter_worlds()

    # -- world queries -------------------------------------------------------

    def count_worlds(
        self, plan: Plan, value: Value, interner: Interner | None = None
    ) -> int:
        space = self.space(plan, value)
        if space is None:
            return _dedup_count(self._eager.possibilities(plan, value, interner))
        return space.count_worlds()

    def exists(
        self, plan: Plan, value: Value, interner: Interner | None = None
    ) -> bool:
        space = self.space(plan, value)
        if space is None:
            return next(
                iter(self._eager.possibilities(plan, value, interner)), None
            ) is not None
        return space.satisfiable()

    def certain(
        self, plan: Plan, value: Value, interner: Interner | None = None
    ) -> frozenset[Value]:
        try:
            surrogate = trace_worlds(plan, value)
        except SymbolicUnsupported:
            return _certain_of_worlds(self._eager.possibilities(plan, value, interner))
        return world_members(surrogate, certain=True)

    def possible(
        self, plan: Plan, value: Value, interner: Interner | None = None
    ) -> frozenset[Value]:
        try:
            surrogate = trace_worlds(plan, value)
        except SymbolicUnsupported:
            return _possible_of_worlds(self._eager.possibilities(plan, value, interner))
        return world_members(surrogate, certain=False)


def _dedup_count(worlds: Iterator[Value]) -> int:
    return len(set(worlds))


def _world_elements(world: Value) -> frozenset[Value]:
    if isinstance(world, (SetValue, BagValue, OrSetValue)):
        return frozenset(world.elems)
    raise OrNRATypeError(
        f"certain/possible expect collection-valued worlds, got {world!r}"
    )


def _certain_of_worlds(worlds: Iterator[Value]) -> frozenset[Value]:
    result: frozenset[Value] | None = None
    for world in worlds:
        elems = _world_elements(world)
        result = elems if result is None else result & elems
        if not result:
            break
    if result is None:
        raise OrNRAValueError("certain() of an inconsistent value (no worlds)")
    return result


def _possible_of_worlds(worlds: Iterator[Value]) -> frozenset[Value]:
    result: set[Value] = set()
    empty = True
    for world in worlds:
        empty = False
        result |= _world_elements(world)
    if empty:
        raise OrNRAValueError("possible() of an inconsistent value (no worlds)")
    return frozenset(result)


BACKENDS["symbolic"] = SymbolicBackend()
