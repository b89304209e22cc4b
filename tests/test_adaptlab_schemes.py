"""Tests for resilience schemes, the sweep harness, replay and analysis."""

import pytest

from repro.adaptlab import (
    DefaultScheme,
    FairScheme,
    LPCostScheme,
    LPFairScheme,
    NoDegradationScheme,
    PhoenixCostScheme,
    PhoenixFairScheme,
    PriorityScheme,
    application_summaries,
    call_graph_size_cdf,
    coverage_curve,
    critical_service_availability,
    default_scheme_suite,
    evaluate_state,
    inject_capacity_failure,
    replay_capacity_trace,
    requests_vs_microservice_fraction,
    run_failure_sweep,
    summarize,
)
from repro.traces import capacity_schedule, paper_capacity_trace, to_capacity_points


@pytest.fixture(scope="module")
def failed_state(small_environment):
    state = small_environment.fresh_state()
    inject_capacity_failure(state, 0.5, seed=13)
    return state


class TestSchemeBasics:
    @pytest.mark.parametrize(
        "scheme_cls",
        [PhoenixCostScheme, PhoenixFairScheme, PriorityScheme, FairScheme, DefaultScheme, NoDegradationScheme],
    )
    def test_respond_does_not_mutate_input(self, scheme_cls, failed_state):
        before = dict(failed_state.assignments)
        scheme_cls().respond(failed_state)
        assert failed_state.assignments == before

    @pytest.mark.parametrize(
        "scheme_cls",
        [PhoenixCostScheme, PhoenixFairScheme, PriorityScheme, FairScheme, DefaultScheme],
    )
    def test_resulting_state_respects_capacity(self, scheme_cls, failed_state):
        new_state, _ = scheme_cls().respond(failed_state)
        for node in new_state.nodes.values():
            assert new_state.used_on(node.name).fits_within(node.capacity)

    @pytest.mark.parametrize(
        "scheme_cls",
        [PhoenixCostScheme, PhoenixFairScheme, PriorityScheme, FairScheme, DefaultScheme],
    )
    def test_no_replicas_left_on_failed_nodes(self, scheme_cls, failed_state):
        new_state, _ = scheme_cls().respond(failed_state)
        for node in new_state.failed_nodes():
            assert new_state.replicas_on(node.name) == []

    def test_planning_time_reported(self, failed_state):
        _, seconds = PhoenixCostScheme().respond(failed_state)
        assert seconds > 0

    def test_default_scheme_suite_contains_five(self):
        assert len(default_scheme_suite()) == 5
        names = {s.name for s in default_scheme_suite()}
        assert names == {"phoenix-cost", "phoenix-fair", "priority", "fair", "default"}


class TestSchemeShapes:
    """The qualitative relationships the paper's Figure 7 reports."""

    def test_phoenix_beats_default_on_availability(self, small_environment, failed_state):
        phoenix_state, _ = PhoenixFairScheme().respond(failed_state)
        default_state, _ = DefaultScheme().respond(failed_state)
        phoenix_avail, _ = critical_service_availability(phoenix_state)
        default_avail, _ = critical_service_availability(default_state)
        assert phoenix_avail >= default_avail

    def test_phoenix_cost_maximizes_revenue(self, small_environment, failed_state):
        reference = small_environment.state
        revenues = {}
        for scheme in default_scheme_suite():
            state, _ = scheme.respond(failed_state)
            revenues[scheme.name] = evaluate_state(state, reference=reference).normalized_revenue
        assert revenues["phoenix-cost"] >= max(
            v for k, v in revenues.items() if k != "phoenix-cost"
        ) - 1e-9

    def test_phoenix_fair_minimizes_fairness_deviation(self, small_environment, failed_state):
        deviations = {}
        for scheme in default_scheme_suite():
            state, _ = scheme.respond(failed_state)
            metrics = evaluate_state(state, reference=small_environment.state)
            deviations[scheme.name] = metrics.fairness.total
        assert deviations["phoenix-fair"] <= deviations["priority"] + 1e-9
        assert deviations["phoenix-fair"] <= deviations["default"] + 1e-9

    def test_no_degradation_is_all_or_nothing(self, failed_state):
        new_state, _ = NoDegradationScheme().respond(failed_state)
        active = new_state.active_microservices()
        for name, app in new_state.applications.items():
            fully_up = active[name] == set(app.microservices)
            fully_down = len(active[name]) == 0
            assert fully_up or fully_down


class TestLPSchemes:
    def test_lp_schemes_work_on_tiny_clusters(self, simple_app, second_app):
        from repro.cluster import Node, Resources
        from repro.cluster.state import ClusterState

        nodes = [Node(f"n{i}", Resources(4, 4)) for i in range(3)]
        state = ClusterState(nodes=nodes, applications=[simple_app, second_app])
        state.fail_nodes(["n0"])
        for scheme in (LPCostScheme(time_limit=20), LPFairScheme(time_limit=20)):
            new_state, seconds = scheme.respond(state)
            assert seconds > 0
            for node in new_state.nodes.values():
                assert new_state.used_on(node.name).fits_within(node.capacity)


class TestHarness:
    def test_sweep_produces_every_point(self, small_environment):
        result = run_failure_sweep(
            small_environment,
            schemes=[PhoenixCostScheme(), DefaultScheme()],
            failure_levels=[0.0, 0.6],
            trials=1,
        )
        assert len(result.points) == 4
        assert result.schemes() == ["default", "phoenix-cost"]

    def test_sweep_availability_not_increasing_with_failures(self, small_environment):
        result = run_failure_sweep(
            small_environment,
            schemes=[PhoenixFairScheme()],
            failure_levels=[0.0, 0.5, 0.9],
            trials=1,
        )
        series = dict(result.series("phoenix-fair", "availability"))
        assert series[0.0] >= series[0.5] >= series[0.9]

    def test_sweep_phoenix_dominates_default(self, small_environment):
        result = run_failure_sweep(
            small_environment,
            schemes=[PhoenixFairScheme(), DefaultScheme()],
            failure_levels=[0.5, 0.7],
            trials=2,
        )
        for level in (0.5, 0.7):
            assert (
                result.point("phoenix-fair", level).availability
                >= result.point("default", level).availability
            )

    def test_point_lookup_raises_for_missing(self, small_environment):
        result = run_failure_sweep(
            small_environment, schemes=[DefaultScheme()], failure_levels=[0.2], trials=1
        )
        with pytest.raises(KeyError):
            result.point("default", 0.9)

    def test_summarize_and_rows(self, small_environment):
        result = run_failure_sweep(
            small_environment, schemes=[DefaultScheme()], failure_levels=[0.0], trials=1
        )
        assert "default" in summarize(result)
        rows = result.to_rows()
        assert rows and "availability" in rows[0]


class TestReplay:
    def test_replay_records_every_step_per_scheme(self, small_environment):
        trace = capacity_schedule([1.0, 0.5, 1.0])
        result = replay_capacity_trace(
            small_environment, [PhoenixCostScheme(), DefaultScheme()], trace=trace
        )
        assert len(result.series("phoenix-cost")) == 3
        assert len(result.series("default")) == 3

    def test_phoenix_serves_at_least_as_many_requests(self, small_environment):
        trace = capacity_schedule([1.0, 0.6, 0.35, 0.35, 0.7, 1.0])
        result = replay_capacity_trace(
            small_environment, [PhoenixCostScheme(), DefaultScheme()], trace=trace
        )
        assert result.improvement("phoenix-cost", "default") >= 1.0

    def test_paper_profile_shape(self):
        fractions = [f for _, f in to_capacity_points(paper_capacity_trace(steps=20))]
        assert len(fractions) == 20
        assert min(fractions) < 0.5 < max(fractions)


class TestAnalysis:
    def test_application_summaries(self, traced_apps):
        summaries = application_summaries(traced_apps)
        assert len(summaries) == len(traced_apps)
        assert all(s.microservices > 0 and s.requests > 0 for s in summaries)

    def test_call_graph_cdf_monotone_and_bounded(self, traced_apps):
        cdf = call_graph_size_cdf(traced_apps[0], max_size=15)
        values = [v for _, v in cdf]
        assert all(0 <= v <= 1 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_requests_vs_microservice_fraction_increases(self, traced_apps):
        points = requests_vs_microservice_fraction(traced_apps[0], fractions=(0.01, 0.05, 0.1))
        coverages = [c for _, c in points]
        assert coverages == sorted(coverages)

    def test_coverage_curve_ends_at_full_coverage(self, traced_apps):
        curve = coverage_curve(traced_apps[1])
        assert curve[-1][1] == pytest.approx(1.0)
