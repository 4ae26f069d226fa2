"""Tests for the symbolic backend (:mod:`repro.engine.symbolic`).

Three layers of differential evidence:

* :class:`ChoiceSpace` against the possible-worlds oracle
  (:func:`repro.core.worlds.worlds`) on random values — world sets,
  exact counts through both the certificate and the fallback path, and
  the certain/possible membership queries;
* the backend against eager enumeration on random programs — the same
  world sets *and* the same error types, whether the trace supports the
  plan or falls back;
* the engine entry points (``count_worlds``/``certain``/``possible``/
  ``exists``) against brute force, including the ``backend="auto"``
  routing that sends huge supported world queries symbolic.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import tight_family
from repro.core.normalize import Normalize
from repro.core.worlds import worlds
from repro.engine import BACKENDS, Engine, symbolic
from repro.engine.symbolic import (
    ChoiceSpace,
    SymbolicBackend,
    SymbolicUnsupported,
    plan_supports_symbolic,
    trace_worlds,
)
from repro.errors import OrNRAError, OrNRAValueError
from repro.gen import random_orset_value
from repro.lang.morphisms import Compose
from repro.lang.orset_ops import OrMap, SetToOr
from repro.morphgen import random_lossless_morphism
from repro.values.values import SetValue, vorset, vset

from tests.strategies import typed_orset_values

ENGINE = Engine()

#: Whole-value normalization over the tight family: eager must build
#: all 3^k worlds, the choice space never builds one.
TIGHT_QUERY = Normalize()


def certain_of(world_set):
    out = None
    for w in world_set:
        elems = frozenset(w.elems)
        out = elems if out is None else out & elems
    return out


def possible_of(world_set):
    out = set()
    for w in world_set:
        out |= set(w.elems)
    return frozenset(out)


class TestChoiceSpaceOracle:
    @settings(max_examples=60, deadline=None)
    @given(typed_orset_values(max_depth=3, max_width=3, min_width=0))
    def test_world_set_matches_oracle(self, pair):
        value, _t = pair
        truth = frozenset(worlds(value))
        space = ChoiceSpace(value)
        assert frozenset(space.iter_worlds()) == truth  # CDCL route
        space.circuit()
        assert frozenset(space.iter_worlds()) == truth  # circuit route

    @settings(max_examples=60, deadline=None)
    @given(typed_orset_values(max_depth=3, max_width=3, min_width=0))
    def test_count_matches_oracle(self, pair):
        value, _t = pair
        assert ChoiceSpace(value).count_worlds() == len(worlds(value))

    def test_exact_count_without_enumeration(self):
        x, _t = tight_family(19)
        space = ChoiceSpace(x)
        assert space.exact
        assert space.count_worlds() == 3**19  # > 10^9, milliseconds

    def test_wide_orsite_stays_linear(self):
        # One 500-branch or-site: the binary encoding needs 9 bits and a
        # few range clauses, never a quadratic exactly-one ladder.
        v = vorset(*range(500))
        space = ChoiceSpace(v)
        assert space.cnf().n_vars == 9
        assert len(space.cnf().clauses) < 12
        assert space.count_worlds() == 500

    def test_nested_sites_under_canonical_branch_do_not_overcount(self):
        # Regression: the guard must be the whole path condition.  A
        # choice nested beneath the canonically-pinned first branch of
        # an unselected site is irrelevant and must not multiply the
        # count (this value has 5 worlds, not 6).
        v = vorset(vorset(vorset(1, 2), vorset(3, 4)), 5)
        assert ChoiceSpace(v).count_worlds() == len(worlds(v)) == 5

    def test_collision_value_falls_back_to_enumeration(self):
        # <1,2>,<2,3>,<1,3> can collapse two choice vectors into one
        # world; the certificate refuses and counting dedups.
        v = vset(vorset(1, 2), vorset(2, 3), vorset(1, 3))
        space = ChoiceSpace(v)
        assert not space.exact
        assert space.count_worlds() == len(worlds(v))

    def test_empty_orset_means_no_worlds(self):
        space = ChoiceSpace(vset(vorset()))
        assert not space.satisfiable()
        assert space.count_worlds() == 0

    @settings(max_examples=80, deadline=None)
    @given(typed_orset_values(max_depth=3, max_width=3, min_width=0))
    def test_membership_queries_match_oracle(self, pair):
        # Every root shape: sets, bags, or-sets, pairs and atoms, nested
        # members and empty or-sets.  Answers equal the worlds oracle;
        # errors match eager's error types.
        value, _t = pair
        space = ChoiceSpace(value)
        for query, members, oracle in (
            (ENGINE.certain, space.certain_members, certain_of),
            (ENGINE.possible, space.possible_members, possible_of),
        ):
            try:
                expected = SetValue(query(TIGHT_QUERY, value, backend="eager"))
                expected_error = None
            except OrNRAError as exc:
                expected, expected_error = None, type(exc)
            try:
                got = SetValue(members())
                got_error = None
            except OrNRAError as exc:
                got, got_error = None, type(exc)
            assert got_error == expected_error
            assert got == expected
            if expected_error is None:
                assert got == SetValue(oracle(worlds(value)))

    def test_certain_of_inconsistent_value_raises(self):
        space = ChoiceSpace(vset(vorset(), vorset(1)))
        with pytest.raises(OrNRAValueError):
            space.certain_members()
        with pytest.raises(OrNRAValueError):
            space.possible_members()

    def test_certain_sees_a_collapsing_nested_set(self):
        # {<1, 2>, <1>, <2>} has two choice vectors but one world,
        # {1, 2}: a member with a multi-world part can still be certain.
        collapsing = vset(vorset(1, 2), vorset(1), vorset(2))
        for value in (vset(collapsing, vset(vorset(3, 4))), vorset(vset(collapsing))):
            for query in (ENGINE.certain, ENGINE.possible):
                expected = query(TIGHT_QUERY, value, backend="eager")
                assert query(TIGHT_QUERY, value, backend="symbolic") == expected
        assert ENGINE.certain(
            TIGHT_QUERY, vset(collapsing), backend="symbolic"
        ) == vset(vset(1, 2))

    def test_membership_makes_no_sat_call(self, monkeypatch):
        # certain/possible recurse on the surrogate; a solver call per
        # candidate (or any solver call at all) is a regression.
        calls = []

        def counting(name, solve):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)

            return wrapper

        for name in ("dpll_sat", "dpll_solve"):
            monkeypatch.setattr(symbolic, name, counting(name, getattr(symbolic, name)))
        x, _t = tight_family(8)
        nested = vset(
            vorset(vset(vorset(1, 2), vorset(3)), vset(vorset(4))),
            vorset(vset(vorset(5))),
        )
        for value in (x, nested, vorset(x, tight_family(5)[0])):
            for query in (ENGINE.certain, ENGINE.possible):
                expected = query(TIGHT_QUERY, value, backend="eager")
                assert query(TIGHT_QUERY, value, backend="symbolic") == expected
                assert calls == []


class TestBackendConformance:
    QUERIES = [
        Normalize(),
        Compose(OrMap(Normalize()), SetToOr()),
        Compose(Normalize(), SetToOr()),
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        typed_orset_values(max_depth=3, max_width=3, min_width=0),
        st.integers(0, 2),
    )
    def test_world_sets_and_errors_match_eager(self, pair, which):
        value, _t = pair
        q = self.QUERIES[which]
        symbolic = BACKENDS["symbolic"]
        try:
            expected = frozenset(ENGINE.possibilities(q, value, backend="eager"))
            expected_error = None
        except OrNRAError as exc:
            expected, expected_error = None, type(exc)
        try:
            got = frozenset(ENGINE.possibilities(q, value, backend="symbolic"))
            got_error = None
        except OrNRAError as exc:
            got, got_error = None, type(exc)
        assert got == expected
        assert got_error == expected_error
        assert isinstance(symbolic, SymbolicBackend)

    @settings(max_examples=25, deadline=None)
    @given(
        typed_orset_values(max_depth=3, max_width=2, min_width=1),
        st.integers(0, 100_000),
    )
    def test_random_programs_agree_with_eager(self, pair, seed):
        # Arbitrary programs: the trace usually refuses and the backend
        # must fall back to an eager-conformant answer.
        value, t = pair
        f, _ = random_lossless_morphism(t, random.Random(seed), depth=4)
        expected = frozenset(ENGINE.possibilities(f, value, backend="eager"))
        got = frozenset(ENGINE.possibilities(f, value, backend="symbolic"))
        assert got == expected

    def test_execute_is_eager_conformant(self):
        x, _t = tight_family(5)
        assert ENGINE.run(TIGHT_QUERY, x, backend="symbolic") == ENGINE.run(
            TIGHT_QUERY, x, backend="eager"
        )


class TestEngineWorldQueries:
    @settings(max_examples=40, deadline=None)
    @given(typed_orset_values(max_depth=3, max_width=3, min_width=1))
    def test_count_matches_brute_force_on_all_routes(self, pair):
        value, _t = pair
        brute = len(set(ENGINE.possibilities(TIGHT_QUERY, value, backend="eager")))
        for backend in ("auto", "symbolic", "eager"):
            assert ENGINE.count_worlds(TIGHT_QUERY, value, backend=backend) == brute

    @settings(max_examples=30, deadline=None)
    @given(typed_orset_values(max_depth=2, max_width=3, min_width=1))
    def test_certain_and_possible_match_brute_force(self, pair):
        value, _t = pair
        if not isinstance(value, SetValue):
            return
        world_set = list(ENGINE.possibilities(TIGHT_QUERY, value, backend="eager"))
        if not all(isinstance(w, (SetValue,)) for w in world_set):
            return
        expected_certain = SetValue(certain_of(world_set))
        expected_possible = SetValue(possible_of(world_set))
        for backend in ("auto", "symbolic", "eager"):
            assert ENGINE.certain(TIGHT_QUERY, value, backend=backend) == expected_certain
            assert ENGINE.possible(TIGHT_QUERY, value, backend=backend) == expected_possible

    def test_exists_with_and_without_predicate(self):
        v = vset(vorset(1, 2), vorset(2, 3))
        two = ENGINE.run(Normalize(), vorset(2)).elems[0]
        assert ENGINE.exists(TIGHT_QUERY, v)
        assert ENGINE.exists(TIGHT_QUERY, v, lambda w: two in w.elems)
        assert not ENGINE.exists(TIGHT_QUERY, vset(vorset()))

    def test_exists_with_a_predicate_is_a_first_witness_query(self, monkeypatch):
        # A predicate makes exists() stream worlds until the first
        # witness, so it routes like possibilities(), never to the
        # symbolic backend's blocking-clause enumeration.
        x, _t = tight_family(6)
        assert ENGINE.choose_backend(TIGHT_QUERY, x, world_query=True).backend == "symbolic"

        def refuse(*_args, **_kwargs):
            raise AssertionError("first-witness exists() routed symbolic")

        monkeypatch.setattr(SymbolicBackend, "possibilities", refuse)
        assert not ENGINE.exists(TIGHT_QUERY, x, lambda w: False)
        assert ENGINE.exists(TIGHT_QUERY, x, lambda w: len(w.elems) == 6)
        assert ENGINE.exists(TIGHT_QUERY, x)  # no predicate: still symbolic

    def test_auto_routes_huge_world_queries_symbolic(self):
        # The acceptance workload: >= 10^9 estimated worlds on a
        # supported spine goes symbolic and answers exactly.
        x, _t = tight_family(19)
        assert 3**19 >= 10**9
        choice = ENGINE.choose_backend(TIGHT_QUERY, x, world_query=True)
        assert choice.backend == "symbolic"
        assert ENGINE.count_worlds(TIGHT_QUERY, x) == 3**19
        assert ENGINE.exists(TIGHT_QUERY, x)
        assert ENGINE.certain(TIGHT_QUERY, x) == SetValue([])

    def test_small_inputs_answers_match_across_routing(self):
        # In-reach sizes: the auto route (symbolic) and the explicit
        # eager route agree on every query.
        for k in (2, 3, 5):
            x, _t = tight_family(k)
            assert ENGINE.count_worlds(TIGHT_QUERY, x) == len(
                set(ENGINE.possibilities(TIGHT_QUERY, x, backend="eager"))
            )

    def test_first_witness_routing_still_prefers_streaming(self):
        # possibilities() is a first-witness consumer: symbolic only
        # wins when the whole world set is quantified, so the
        # existential route keeps streaming.
        x, _t = tight_family(300)
        q = Compose(OrMap(Normalize()), SetToOr())
        assert ENGINE.choose_backend(q, x, existential=True).backend == "streaming"
        assert ENGINE.choose_backend(
            q, x, existential=True, world_query=True
        ).backend == "symbolic"

    def test_explain_reports_the_symbolic_route(self):
        x, _t = tight_family(19)
        text = ENGINE.explain(TIGHT_QUERY, value=x, existential=True)
        assert "symbolic" in text


class TestTrace:
    def test_supported_plans(self):
        for q in TestBackendConformance.QUERIES:
            assert plan_supports_symbolic(ENGINE.compile(q, True))

    def test_unsupported_plan_refuses(self):
        from repro.lang.set_ops import SetMap
        from repro.lang.morphisms import Id

        # optimize=False: the pipeline would rewrite map(id) to id,
        # which *is* supported.
        assert not plan_supports_symbolic(ENGINE.compile(SetMap(Id()), False))

    def test_trace_preserves_world_sets(self):
        rng = random.Random(11)
        q = Compose(OrMap(Normalize()), SetToOr())
        plan = ENGINE.compile(q, True)
        for _ in range(25):
            v, t = random_orset_value(rng, max_depth=2, max_width=3, min_width=1)
            try:
                surrogate = trace_worlds(plan, v)
            except (SymbolicUnsupported, OrNRAError):
                continue
            assert frozenset(worlds(surrogate)) == frozenset(
                ENGINE.possibilities(q, v, backend="eager")
            )
