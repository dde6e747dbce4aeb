import hashlib
import random
import time
from collections import Counter

import pytest

from capnet.deltas import (
    CompensationOutcome,
    FuzzyParams,
    compensate,
    compute_delta,
    deficit_sum,
    is_feasible_fuzzy,
)
from capnet.errors import ConfigError, IncompleteProfileError
from capnet.network import (
    ConjugationGraph,
    Edge,
    RelationKind,
)
from capnet.profiles import Phase, Profile, RequirementSet
from capnet.taxonomy import parse_capability_id as pid

from oracles import exhaustive_shift_feasible

A, B, C, D = pid("3.03.04"), pid("3.02.03"), pid("3.04.02"), pid("5.01.01")
WIDE = [pid(f"3.04.{i:02d}") for i in range(1, 9)]


def random_instance(rng):
    """6-8 capabilities, deficit sum at most 8, random pairs, xi and theta."""
    ids = WIDE[: rng.randint(6, 8)]
    while True:
        caps = {cap: rng.randint(0, 6) for cap in ids}
        reqs = {cap: min(6, max(0, caps[cap] + rng.randint(-3, 3))) for cap in ids}
        if sum(max(0, reqs[c] - caps[c]) for c in ids) <= 8:
            break
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if rng.random() < 0.4] or [(ids[0], ids[1])]
    xi = {cap: rng.randint(0, 2) for cap in ids if rng.random() < 0.3}
    return reqs, caps, pairs, FuzzyParams(xi=xi, theta=rng.randint(0, 3))


def graph_of(*pairs):
    nodes = sorted({n for pair in pairs for n in pair})
    edges = tuple(
        Edge(min(a, b), max(a, b), RelationKind.APPEARS_WITH) for a, b in pairs
    )
    return ConjugationGraph(nodes=tuple(nodes), edges=edges)


def profile_of(values):
    return Profile("agent", Phase.UNSPECIFIED, values)


class TestComputeDelta:
    def test_identity(self):
        deltas = compute_delta(RequirementSet("k", {A: 4}), profile_of({A: 4}))
        assert deltas == {A: 0}

    def test_mixed(self):
        deltas = compute_delta(
            RequirementSet("k", {A: 5, B: 2}), profile_of({A: 3, B: 5})
        )
        assert deltas == {A: 2, B: -3}

    def test_elementwise_oracle(self):
        rng = random.Random(7)
        ids = [pid(f"3.03.{i:02d}") for i in range(1, 11)]
        for _ in range(50):
            reqs = {cap: rng.randint(0, 6) for cap in ids}
            caps = {cap: rng.randint(0, 6) for cap in ids}
            result = compute_delta(RequirementSet("k", reqs), profile_of(caps))
            assert result == {cap: reqs[cap] - caps[cap] for cap in ids}

    def test_antisymmetry(self):
        rng = random.Random(8)
        ids = [pid(f"3.04.{i:02d}") for i in range(1, 7)]
        values_a = {cap: rng.randint(0, 6) for cap in ids}
        values_b = {cap: rng.randint(0, 6) for cap in ids}
        forward = compute_delta(RequirementSet("k", values_a), profile_of(values_b))
        backward = compute_delta(RequirementSet("k", values_b), profile_of(values_a))
        assert forward == {cap: -d for cap, d in backward.items()}

    def test_missing_capability_listed(self):
        with pytest.raises(IncompleteProfileError) as err:
            compute_delta(RequirementSet("k", {A: 4, B: 1}), profile_of({A: 4}))
        assert B in err.value.missing
        # two missing ids, required out of order, are listed sorted
        with pytest.raises(IncompleteProfileError) as err:
            compute_delta(RequirementSet("k", {C: 1, A: 4, B: 1}), profile_of({A: 4}))
        assert err.value.missing == (B, C)


class TestDeficitSum:
    def test_zero(self):
        assert deficit_sum({A: 0, B: 0}) == 0

    def test_reserves_do_not_offset(self):
        assert deficit_sum({A: 2, B: -3}) == 2

    def test_multiple_deficits(self):
        assert deficit_sum({A: 1, B: 1, C: -5}) == 2


class TestFuzzyFeasibility:
    def test_boundary_feasible(self):
        deltas = {A: 1, B: 0, C: -2}
        fuzz = FuzzyParams(xi={A: 1, B: 0, C: 0}, theta=1)
        report = is_feasible_fuzzy(deltas, fuzz)
        assert report.feasible
        assert bool(report)

    def test_per_capability_clause_violated(self):
        deltas = {A: 2, B: 0}
        report = is_feasible_fuzzy(deltas, FuzzyParams(xi={A: 1}, theta=9))
        assert not report.feasible
        assert report.per_capability_violations == ((A, 2, 1),)
        assert report.aggregate_violation is None

    def test_aggregate_clause_binds(self):
        deltas = {A: 1, B: 1}
        report = is_feasible_fuzzy(deltas, FuzzyParams(xi={A: 1, B: 1}, theta=1))
        assert not report.feasible
        assert report.per_capability_violations == ()
        assert report.aggregate_violation == (2, 1)

    def test_missing_xi_defaults_to_zero(self):
        deltas = {A: 1}
        assert not is_feasible_fuzzy(deltas, FuzzyParams(theta=5)).feasible

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            FuzzyParams(xi={A: 7})
        with pytest.raises(ConfigError):
            FuzzyParams(theta=-1)
        with pytest.raises(ConfigError):
            is_feasible_fuzzy({A: 0}, FuzzyParams(theta=7))


class TestCompensate:
    def test_reach_deficit_compensated_by_trunk_reserve(self):
        requirements = RequirementSet("k", {A: 5, B: 2})
        profile = profile_of({A: 4, B: 5})
        trace = compensate(requirements, profile, graph_of((A, B)), FuzzyParams())
        assert trace.outcome is CompensationOutcome.FEASIBLE_AFTER_COMPENSATION
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert (step.deficient, step.reserve, step.amount) == (A, B, 1)
        assert trace.final_requirements.requirements == {A: 4, B: 3}

    def test_all_reserves_is_direct(self):
        requirements = RequirementSet("k", {A: 2, B: 2})
        profile = profile_of({A: 5, B: 4})
        trace = compensate(requirements, profile, graph_of((A, B)), FuzzyParams())
        assert trace.outcome is CompensationOutcome.FEASIBLE_DIRECT
        assert trace.steps == ()

    def test_no_conjugated_reserve_is_infeasible(self):
        requirements = RequirementSet("k", {A: 5, B: 2})
        profile = profile_of({A: 3, B: 5})
        trace = compensate(requirements, profile, graph_of((A, C)), FuzzyParams())
        assert trace.outcome is CompensationOutcome.INFEASIBLE
        assert trace.final_requirements.requirements == requirements.requirements

    def test_empty_requirements_direct(self):
        trace = compensate(RequirementSet("k", {}), profile_of({}), graph_of((A, B)), FuzzyParams())
        assert trace.outcome is CompensationOutcome.FEASIBLE_DIRECT

    def test_requirement_sum_conserved(self):
        requirements = RequirementSet("k", {A: 6, B: 1, C: 3})
        profile = profile_of({A: 3, B: 5, C: 4})
        trace = compensate(
            requirements, profile, graph_of((A, B), (A, C)), FuzzyParams()
        )
        assert trace.final_requirements.total() == requirements.total()

    def test_backtracking_finds_the_only_split(self):
        # two deficits share reserve B; C also has a private reserve D.
        # Shifting A into B first is fine only if C uses D; a greedy pass
        # that also sends C into B would strand A.
        requirements = RequirementSet("k", {A: 4, C: 4, B: 3, D: 3})
        profile = profile_of({A: 3, C: 3, B: 4, D: 4})
        graph = graph_of((A, B), (C, B), (C, D))
        trace = compensate(requirements, profile, graph, FuzzyParams())
        assert trace.outcome is CompensationOutcome.FEASIBLE_AFTER_COMPENSATION
        assert trace.final_requirements.total() == requirements.total()

    def test_greedy_trap_requires_backtracking(self):
        # A and C are both deficient by 1, both conjugated only with B,
        # which can absorb a single unit. A's slack already covers its
        # deficit, so the only feasible end state shifts C, not A. The
        # largest-deficit-first order ties and tries A first; without
        # backtracking the verdict would be infeasible.
        requirements = RequirementSet("k", {A: 4, C: 4, B: 5})
        profile = profile_of({A: 3, C: 3, B: 6})
        fuzz = FuzzyParams(xi={A: 1}, theta=1)
        graph = graph_of((A, B), (C, B))
        trace = compensate(requirements, profile, graph, fuzz)
        assert trace.outcome is CompensationOutcome.FEASIBLE_AFTER_COMPENSATION
        assert exhaustive_shift_feasible(
            requirements.requirements,
            profile.values,
            {frozenset((A, B)), frozenset((C, B))},
            {A: 1},
            1,
        )

    def test_deterministic_step_order(self):
        requirements = RequirementSet("k", {A: 5, C: 5, B: 1, D: 1})
        profile = profile_of({A: 3, C: 3, B: 4, D: 4})
        graph = graph_of((A, B), (A, D), (C, B), (C, D))
        first = compensate(requirements, profile, graph, FuzzyParams())
        second = compensate(requirements, profile, graph, FuzzyParams())
        assert first.steps == second.steps

    def test_feasible_outcome_has_feasible_report(self):
        rng = random.Random(41)
        ids = [A, B, C, D]
        for _ in range(200):
            reqs = {cap: rng.randint(0, 6) for cap in ids}
            caps = {cap: rng.randint(0, 6) for cap in ids}
            pairs = [(A, B), (C, D), (B, C)]
            graph = graph_of(*pairs)
            fuzz = FuzzyParams(theta=rng.randint(0, 2))
            trace = compensate(RequirementSet("k", reqs), profile_of(caps), graph, fuzz)
            if trace.outcome is not CompensationOutcome.INFEASIBLE:
                assert trace.final_report.feasible
                assert trace.final_requirements.total() == sum(reqs.values())

    def test_verdict_matches_exhaustive_oracle(self):
        rng = random.Random(2024)
        ids = [A, B, C, D]
        all_pairs = [(A, B), (A, C), (A, D), (B, C), (B, D), (C, D)]
        for _ in range(300):
            reqs = {cap: rng.randint(0, 5) for cap in ids}
            caps = {cap: rng.randint(0, 6) for cap in ids}
            if sum(max(0, reqs[c] - caps[c]) for c in ids) > 6:
                continue
            pairs = [p for p in all_pairs if rng.random() < 0.5]
            xi = {cap: rng.randint(0, 1) for cap in ids if rng.random() < 0.4}
            theta = rng.randint(0, 3)
            fuzz = FuzzyParams(xi=xi, theta=theta)
            trace = compensate(
                RequirementSet("k", reqs), profile_of(caps), graph_of(*pairs) if pairs else graph_of((A, B)), fuzz
            )
            pair_set = {frozenset(p) for p in (pairs if pairs else [(A, B)])}
            expected = exhaustive_shift_feasible(reqs, caps, pair_set, xi, theta)
            got = trace.outcome is not CompensationOutcome.INFEASIBLE
            assert got == expected

    def test_trace_serialization(self):
        requirements = RequirementSet("k", {A: 5, B: 2})
        profile = profile_of({A: 4, B: 5})
        trace = compensate(requirements, profile, graph_of((A, B)), FuzzyParams())
        text = trace.text_report()
        assert "feasible_after_compensation" in text
        assert f"shift 1 from {A} to {B}" in text
        doc = trace.to_document()
        assert '"outcome": "feasible_after_compensation"' in doc

    def test_steps_use_conjugated_pairs_only(self):
        requirements = RequirementSet("k", {A: 6, B: 0, C: 0})
        profile = profile_of({A: 2, B: 4, C: 4})
        graph = graph_of((A, B), (A, C))
        trace = compensate(requirements, profile, graph, FuzzyParams(theta=2))
        for step in trace.steps:
            assert step.reserve in graph.adjacency[step.deficient]

    def test_incomplete_profile_rejected(self):
        with pytest.raises(IncompleteProfileError):
            compensate(
                RequirementSet("k", {A: 4, B: 2}),
                profile_of({A: 4}),
                graph_of((A, B)),
                FuzzyParams(),
            )

    def test_verdict_matches_oracle_on_wider_instances(self):
        rng = random.Random(4711)
        feasible = 0
        for _ in range(600):
            reqs, caps, pairs, fuzz = random_instance(rng)
            trace = compensate(RequirementSet("k", reqs), profile_of(caps), graph_of(*pairs), fuzz)
            expected = exhaustive_shift_feasible(reqs, caps, {frozenset(p) for p in pairs}, fuzz.xi, fuzz.theta)
            assert (trace.outcome is not CompensationOutcome.INFEASIBLE) == expected
            feasible += expected
        assert 100 <= feasible <= 500

    def test_trace_shifts_fewest_units_in_canonical_order(self):
        rng = random.Random(4712)
        compensated = 0
        for _ in range(600):
            reqs, caps, pairs, fuzz = random_instance(rng)
            trace = compensate(RequirementSet("k", reqs), profile_of(caps), graph_of(*pairs), fuzz)
            if trace.outcome is not CompensationOutcome.FEASIBLE_AFTER_COMPENSATION:
                continue
            compensated += 1
            assert trace.final_report.feasible
            delta = {cap: reqs[cap] - caps[cap] for cap in reqs}
            lower = sum(max(0, d - fuzz.xi.get(cap, 0)) for cap, d in delta.items() if d > 0)
            aggregate = sum(d for d in delta.values() if d > 0) - fuzz.theta
            assert sum(step.amount for step in trace.steps) == max(lower, aggregate)
            used = [(step.deficient, step.reserve) for step in trace.steps]
            assert len(set(used)) == len(used)
            keys = [((-delta[d], d), r) for d, r in used]
            assert keys == sorted(keys)
            assert all(step.amount > 0 for step in trace.steps)
        assert compensated >= 100

    @pytest.mark.parametrize("short_reserve, feasible", [(True, False), (False, True)])
    def test_fully_conjugated_k12_is_fast(self, short_reserve, feasible):
        # 12 deficits of 2 with no slack and 12 reserves of 2, every pair
        # conjugated. Taking one unit off a reserve leaves 23 units of room
        # for 24 units of deficit: Hall's condition fails on the whole set.
        deficient = [pid(f"3.03.{i:02d}") for i in range(1, 13)]
        reserves = [pid(f"3.04.{i:02d}") for i in range(1, 13)]
        reqs = {**{cap: 4 for cap in deficient}, **{cap: 2 for cap in reserves}}
        if short_reserve:
            reqs[reserves[-1]] = 3
        caps = {**{cap: 2 for cap in deficient}, **{cap: 4 for cap in reserves}}
        everything = deficient + reserves
        graph = graph_of(*[(a, b) for i, a in enumerate(everything) for b in everything[i + 1 :]])
        start = time.perf_counter()
        trace = compensate(RequirementSet("k", reqs), profile_of(caps), graph, FuzzyParams())
        assert time.perf_counter() - start < 2.0
        assert (trace.outcome is not CompensationOutcome.INFEASIBLE) == feasible
        if feasible:
            assert trace.final_report.feasible
            assert sum(step.amount for step in trace.steps) == 24


# SHA-256 of the concatenated trace documents of the batch below, and of
# their text reports, whose infeasible lines come from the final report.
# Any change to verdicts, step order, amounts, violated clauses or id
# rendering shows up here; update a digest only together with a declared
# change of the trace output.
GOLDEN_TRACE_SHA256 = "6b6449fc102cd0440a67aa34bf7527afd22a7edcb84f3371e7baea4030c6bfea"
GOLDEN_REPORT_SHA256 = "faaca5d7bed4ba1ac3c1ff33ab93515ceaa6787a8d3e526350cd68a67766d0d4"


def golden_queries(sitting_set):
    """The golden batch: 600 (requirements, agent, fuzz) queries on 40 agents."""
    rng = random.Random(20260418)
    agents = [
        profile_of({cap: rng.randint(0, 6) for cap in sitting_set}) for _ in range(40)
    ]
    for n in range(600):
        agent = rng.choice(agents)
        ids = rng.sample(sitting_set, rng.randint(2, 12))
        reqs = {cap: min(6, max(0, agent.values[cap] + rng.randint(-2, 2))) for cap in ids}
        fuzz = FuzzyParams(
            xi={cap: rng.randint(0, 2) for cap in ids if rng.random() < 0.3},
            theta=rng.randint(0, 3),
        )
        yield RequirementSet(f"q{n}", reqs), agent, fuzz


def test_golden_trace_batch_on_default_graph(final_graph, sitting_set):
    digest, reports = hashlib.sha256(), hashlib.sha256()
    outcomes = Counter()
    for requirements, agent, fuzz in golden_queries(sitting_set):
        trace = compensate(requirements, agent, final_graph, fuzz)
        outcomes[trace.outcome] += 1
        digest.update(trace.to_document().encode("utf-8"))
        reports.update(trace.text_report().encode("utf-8"))
        # the final report is derived from the flow; it must be the final requirements' own
        assert trace.final_report == is_feasible_fuzzy(compute_delta(trace.final_requirements, agent), fuzz)
    assert min(outcomes[outcome] for outcome in CompensationOutcome) >= 50
    assert digest.hexdigest() == GOLDEN_TRACE_SHA256
    assert reports.hexdigest() == GOLDEN_REPORT_SHA256


def test_compensate_leaves_no_cyclic_garbage(final_graph, sitting_set, cyclic_garbage):
    queries = list(golden_queries(sitting_set))

    def run():
        for requirements, agent, fuzz in queries:
            compensate(requirements, agent, final_graph, fuzz)

    assert cyclic_garbage(run) == 0
