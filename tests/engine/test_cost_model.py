"""Tests for the cost model: estimator soundness, plan annotation,
cost-guided pass scheduling and adaptive backend selection."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.costs import (
    estimate_m_value,
    estimate_normalized_size,
    m_value,
    normalized_size,
    prop61_bound,
    tight_family,
)
from repro.core.normalize import Normalize
from repro.engine import Engine
from repro.engine.cost_model import (
    SMALL_WORLDS,
    WIDE_SPINE,
    estimate_morphism_cost,
    estimate_value,
    plan_profile,
    select_backend,
)
from repro.engine.passes import (
    CONDITIONALS,
    LATE_NORMALIZE,
    Pipeline,
    default_pipeline,
    operator_census,
)
from repro.engine.plan import compile_plan
from repro.gen import random_orset_value
from repro.lang.morphisms import Compose, Cond, Id, Proj1, Proj2
from repro.lang.orset_ops import Alpha, OrMap, OrMu, OrToSet, SetToOr
from repro.lang.set_ops import SetMap, SetMu
from repro.morphgen import random_lossless_morphism
from repro.types.parse import parse_type
from repro.values.values import vorset, vpair, vset

from tests.strategies import cpu_bound_designs


class TestEstimatorSoundness:
    """The static estimator must be a sound upper bound on the measured
    Section 6 quantities — checked against full normalization."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_estimate_bounds_m_value(self, seed):
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        assert estimate_m_value(v) >= m_value(v, t), str(v)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_estimate_bounds_normalized_size(self, seed):
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        assert estimate_normalized_size(v) >= normalized_size(v, t), str(v)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_estimate_at_most_prop61(self, seed):
        """The combined bound never exceeds Proposition 6.1's cap."""
        from repro.values.measure import has_orset

        rng = random.Random(seed)
        v, _t = random_orset_value(rng, max_depth=3, max_width=3, min_width=1)
        if has_orset(v):
            assert estimate_m_value(v) <= prop61_bound(v)

    def test_exact_on_tight_family(self):
        """Theorem 6.5's witnesses: the estimate is not just sound but
        exact — m = 3^k worlds of k atoms each."""
        for k in range(1, 6):
            x, t = tight_family(k)
            est = estimate_value(x)
            assert est.worlds == 3**k == m_value(x, t)
            assert est.norm_size == k * 3**k == normalized_size(x, t)
            assert est.size == 3 * k
            assert est.width == k

    def test_estimation_never_normalizes(self, monkeypatch):
        """The acceptance guard: estimating must not call the
        normalization machinery at all."""
        import sys

        # `repro.core` re-exports a `normalize` *function*, shadowing the
        # submodule attribute — go through sys.modules for the module.
        normalize_mod = sys.modules["repro.core.normalize"]

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("estimator called the normalizer")

        monkeypatch.setattr(normalize_mod, "normalize", boom)
        monkeypatch.setattr(normalize_mod, "normalize_with_trace", boom)
        monkeypatch.setattr(normalize_mod, "possibilities", boom)
        x, _t = tight_family(5)
        assert estimate_value(x).worlds == 3**5
        assert estimate_m_value(vpair(vorset(1, 2), vset(vorset(3, 4)))) == 4

    def test_empty_orset_means_no_worlds(self):
        assert estimate_m_value(vpair(1, vorset())) == 0
        assert estimate_m_value(vset()) == 1  # the empty set is one world


class TestSharedTraversal:
    def test_m_value_and_normalized_size_share_one_normalization(self):
        from repro.core.costs import normalization_measures

        normalization_measures.cache_clear()
        x, t = tight_family(3)
        assert m_value(x, t) == 27
        assert normalized_size(x, t) == 81
        info = normalization_measures.cache_info()
        assert info.misses == 1 and info.hits == 1


class TestPlanAnnotation:
    def test_explain_with_value_shows_estimates_and_backend(self):
        out = engine.explain(
            Normalize(), value=vset(vorset(1, 2), vorset(3, 4))
        )
        assert "~worlds<=4" in out
        assert "backend: eager" in out

    def test_settoor_annotation_accounts_for_disjunction(self):
        # settoor turns a k-member set into a k-way disjunction; the
        # annotation must not carry the set's world count through.
        plan = compile_plan(SetToOr())
        est = plan.annotate_estimates(vset(1, 2, 3))
        assert est.worlds >= 3

    def test_annotate_estimates_on_chain(self):
        q = Compose(OrMap(Id()), SetToOr())
        plan = compile_plan(q)
        x, t = tight_family(4)
        root_est = plan.annotate_estimates(x)
        # The root prediction stays above the output's true world count.
        assert root_est.worlds >= m_value(q(x))
        assert plan.nodes[plan.root].est_worlds == root_est.worlds


class TestBackendSelection:
    def test_small_inputs_stay_eager(self):
        plan = compile_plan(OrMap(Id()))
        choice = select_backend(plan, vorset(1, 2))
        assert choice.backend == "eager"

    def test_existential_blowup_streams(self):
        x, _t = tight_family(SMALL_WORLDS)  # 3^64 estimated worlds
        plan = compile_plan(Compose(OrMap(Normalize()), SetToOr()))
        choice = select_backend(plan, x, existential=True)
        assert choice.backend == "streaming"

    def test_cpu_bound_wide_spine_gets_a_shard_hint(self):
        x = cpu_bound_designs(WIDE_SPINE + 8)
        plan = compile_plan(SetMap(Normalize()))
        choice = select_backend(plan, x, available={"eager", "fused", "process"})
        assert choice.backend == "process"
        assert choice.shards is not None and 2 <= choice.shards <= WIDE_SPINE + 8

    def test_member_work_is_per_member_not_per_product(self):
        # Section 6's bounds compose: normalizing each member of a wide
        # set costs the sum of the members' sizes, while norm_size bounds
        # the product over all of them.
        x, _t = tight_family(WIDE_SPINE + 8)
        est = estimate_value(x)
        assert est.member_work == 3
        assert est.norm_size // est.width > 3**WIDE_SPINE
        assert estimate_value(cpu_bound_designs(WIDE_SPINE + 8)).member_work == 896
        assert estimate_value(vorset(1, 2)).member_work == 1
        assert estimate_value(vpair(1, 2)).member_work == 0

    def test_cheap_member_wide_spines_stay_in_thread(self):
        # Cheap members never pay process transport, and auto never
        # picks the GIL-bound thread pool; answers still equal eager.
        eng = Engine()
        family, _t = tight_family(WIDE_SPINE + 8)
        nested = vset(
            *(
                vset(vorset(3 * i, 3 * i + 1, 3 * i + 2), vorset(-i, -i - 1))
                for i in range(WIDE_SPINE + 8)
            )
        )
        for program, x in (
            (Compose(SetMu(), SetMap(OrToSet())), family),
            (SetMap(Normalize()), family),
            (SetMap(Alpha()), nested),
        ):
            choice = eng.choose_backend(program, x)
            assert choice.backend in ("fused", "eager"), (program.describe(), choice)
            assert eng.run(program, x, intern=False) == eng.run(
                program, x, backend="eager", intern=False
            )

    def test_profile_counts_spine_stages(self):
        plan = compile_plan(Compose(SetMu(), SetMap(OrToSet())))
        profile = plan_profile(plan)
        assert profile.spine_maps == 1
        assert profile.spine_stages == 2  # map(ortoset) then mu

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_auto_matches_every_backend(self, seed):
        """The regression gate: adaptive selection must return results
        structurally equal to all three fixed backends."""
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
        f, _ = random_lossless_morphism(t, rng, depth=4)
        eng = Engine()
        auto = eng.run(f, v, backend="auto")
        for name in ("eager", "streaming", "parallel"):
            assert eng.run(f, v, backend=name) == auto, (name, f.describe())

    def test_auto_is_the_default(self):
        x, _t = tight_family(3)
        eng = Engine()
        assert eng.run(Normalize(), x) == eng.run(
            Normalize(), x, backend="eager"
        )

    def test_choose_backend_reports_reason(self):
        eng = Engine()
        choice = eng.choose_backend(OrMap(Id()), vorset(1, 2))
        assert choice.backend == "eager"
        assert choice.reason


class TestCostGuidedScheduling:
    def test_census_skips_irrelevant_passes(self):
        m = Compose(SetMap(Proj1()), SetMap(Proj2()))
        present = operator_census(m)
        assert not CONDITIONALS.relevant(present)
        assert Cond in operator_census(Cond(Proj1(), Proj1(), Proj2()))

    def test_run_matches_fixed_order_semantics(self):
        rng = random.Random(7)
        for _ in range(25):
            v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
            f, _ = random_lossless_morphism(t, rng, depth=4)
            guided = default_pipeline().run(f)
            fixed = default_pipeline().run_fixed_order(f)
            assert guided(v) == fixed(v) == f(v), f.describe()

    def test_budget_zero_is_identity(self):
        m = Compose(Id(), Compose(SetMap(Proj1()), SetMap(Proj2())))
        pipeline = Pipeline(budget=0)
        assert pipeline.run(m) == m
        assert pipeline.fired == []

    def test_budget_caps_rule_applications(self):
        m = Compose(Id(), Compose(SetMap(Proj1()), SetMap(Proj2())))
        pipeline = Pipeline(budget=1)
        pipeline.run(m)
        assert len(pipeline.fired) == 1

    def test_schedule_records_cost_deltas(self):
        pipeline = default_pipeline()
        pipeline.run(Compose(Id(), SetMap(Id())))
        assert pipeline.schedule
        for _label, before, after in pipeline.schedule:
            assert after <= before

    def test_weighted_cost_ranks_normalize_heaviest(self):
        assert estimate_morphism_cost(Normalize()) > estimate_morphism_cost(
            Compose(SetMap(Proj1()), SetMu())
        )

    def test_cost_scales_with_input_worlds(self):
        x, _t = tight_family(20)
        big = estimate_morphism_cost(Normalize(), estimate_value(x))
        small = estimate_morphism_cost(Normalize(), estimate_value(vorset(1)))
        assert big > small


class TestLateNormalization:
    def test_drops_elementwise_prenormalization(self):
        m = Compose(Normalize(), SetMap(Normalize()))
        out = LATE_NORMALIZE.run(m)
        assert out == Normalize()
        v = vset(vpair(1, vorset(1, 2)), vpair(3, vorset(4, 5)))
        assert out(v) == m(v)

    def test_delays_normalize_past_or_mu(self):
        t = parse_type("<int>")
        m = Compose(OrMu(), OrMap(Normalize(t)))
        out = LATE_NORMALIZE.run(m)
        assert out == Compose(Normalize(t), OrMu())
        v = vorset(vorset(1, 2), vorset(2, 3))
        assert out(v) == m(v)

    def test_untyped_normalize_not_moved_past_mu(self):
        # Without a declared or-set input type the rewritten or_mu could
        # receive a non-or-set element type, so the rule must not fire.
        m = Compose(OrMu(), OrMap(Normalize()))
        assert LATE_NORMALIZE.run(m) == m

    def test_in_default_pipeline(self):
        m = Compose(Normalize(), OrMap(Normalize()))
        assert default_pipeline().run(m) == Normalize()


class TestInternerLRU:
    def test_hot_entries_survive_eviction(self):
        from repro.engine.interning import Interner

        interner = Interner(max_size=8)
        hot = interner.intern(vorset(777))
        for i in range(50):
            interner.intern(vorset(i, i + 1))
            interner.intern(vorset(777))  # touch: keeps the entry MRU
        assert interner.intern(vorset(777)) is hot
        assert interner.stats()["evictions"] >= 1

    def test_cold_entries_leave_first(self):
        from repro.engine.interning import Interner

        interner = Interner(max_size=4)
        cold = interner.intern(vorset(1000))
        for i in range(20):
            interner.intern(vorset(i))
        assert not interner.is_interned(cold)

    def test_normalize_memo_survives_large_normal_form(self):
        # Interning a normal form with more nested entries than the
        # arena holds must not evict the memo that was just written.
        from repro.engine.interning import Interner

        interner = Interner(max_size=4)
        v = vset(vorset(1, 2), vorset(3, 4))
        first = interner.normalize(v)
        assert interner.normalize(v) is first
        assert interner.normalize_misses == 1

    def test_normalize_memo_survives_touches(self):
        from repro.engine.interning import Interner

        interner = Interner(max_size=16)
        v = vpair(vset(vorset(1, 2), vorset(3)), vorset(1, 2))
        first = interner.normalize(v)
        for i in range(6):
            interner.intern(vorset(5000 + i))
            interner.normalize(v)  # touches v's entry each round
        assert interner.normalize(v) is first
        assert interner.normalize_misses == 1
