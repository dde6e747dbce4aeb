"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
from types import SimpleNamespace

import pytest

import checks
import harness
import layers
import run
import tracing
import workloads


# -- the ten-beyond percentile rule ------------------------------------------------


def test_ten_beyond_needs_a_thousand_samples_for_p99():
    assert harness.beyond(1000, 0.99) == 10
    assert harness.beyond(999, 0.99) == 9
    assert harness.beyond(20, 0.5) == 10


def test_nearest_rank_percentile():
    samples = list(range(1, 1001))
    assert harness.percentile(samples, 0.99) == 990
    assert harness.percentile(samples, 0.5) == 500
    assert harness.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_allocate_is_sized_for_p99():
    assert harness.beyond(run.MIN_PASSES * workloads.ALLOCATE_QUERIES, 0.99) >= 10


# -- self-time arithmetic --------------------------------------------------------


def span(name, start, end, parent=None):
    return tracing.Span(name, float(start), float(end), parent, "op")


def test_self_time_subtracts_children():
    spans = [
        span("cli.analyze", 0, 10),
        span("stats.pvalues", 1, 7, 0),
        span("cover.solver", 2, 5, 1),
        span("stats.corr", 5, 6, 1),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    tracer = tracing.Tracer()
    tracer.spans.extend(spans)
    tracer.start_phase("pass")
    metrics = layers.per_layer_metrics(tracer, overhead_s=0.0)
    layer = {name: metrics[f"{name}.self_s"]["value"] for name in ("cli", "stats", "cover")}
    assert layer == {"cli": 4.0, "stats": 3.0, "cover": 3.0}
    assert sum(layer.values()) == spans[0].duration


def test_covered_counts_overlap_once_and_clips():
    assert tracing.covered(0, 10, [(1, 4), (3, 6), (9, 12)]) == 6
    assert tracing.covered(2, 3, [(0, 10)]) == 1


def test_nested_same_name_spans_count_once():
    spans = [span("network.load", 0, 4), span("network.load", 1, 2, 0), span("network.build", 4, 5)]
    assert tracing.outermost(spans) == [True, False, True]


def test_per_layer_metrics_add_setup_and_average_pass():
    tracer = tracing.Tracer()
    tracer.spans.append(span("network.load", 0, 1))
    tracer.count("cover.columns", 5)
    for start, length in ((10, 2), (20, 4)):
        tracer.start_phase("pass")
        tracer.spans.append(span("cover.solve", start, start + length))
        tracer.count("cover.columns", 100)
    metrics = layers.per_layer_metrics(tracer, overhead_s=0.5)
    assert [name for name, _, _ in layers.PER_LAYER] == list(metrics)
    assert metrics["network.load_s"]["value"] == 1.0
    assert metrics["cover.solve_s"]["value"] == 3.0
    assert metrics["cover.columns"]["value"] == 105.0
    assert metrics["trace.overhead_s"]["value"] == 0.5
    assert metrics["stats.pvalues_s"]["value"] == 0.0


def test_wrap_records_spans_and_restores():
    from capnet import cover, synthesis

    original_solver = cover.linprog
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        assert cover.linprog is not original_solver
        assert synthesis.synthesize.__wrapped__ is not None
    finally:
        tracer.restore()
    assert cover.linprog is original_solver
    assert not hasattr(synthesis.synthesize, "__wrapped__")


# -- wrong outputs count as failures ---------------------------------------------------


GRAPH = json.dumps({"edges": [{"from": "1.01", "to": "1.02"}, {"from": "1.02", "to": "1.03"}]})
PLAN = "sequence_id,trivial_name,steps\n0,x,1.01:1 1.02:1 1.03:1\n1,y,1.01:2 1.02:2\n"


def test_plan_check_accepts_a_valid_plan():
    assert checks.plan_problems(GRAPH, PLAN, ["1.01", "1.02"], 2, 2, 2) == []


@pytest.mark.parametrize(
    "plan, fragment",
    [
        (PLAN.replace("1.02:2\n", "1.02:2\n2,z,1.03:1\n"), "3 sequences"),
        (PLAN.replace("1.01:2 1.02:2", "1.02:2 1.01:2"), "not a graph edge"),
        (PLAN.replace("1.01:2 1.02:2", "1.02:2 1.03:2"), "1.01 visited 1 times"),
    ],
)
def test_plan_check_rejects_wrong_plans(plan, fragment):
    problems = checks.plan_problems(GRAPH, plan, ["1.01", "1.02"], 2, 2, 2)
    assert any(fragment in p for p in problems)


def test_lex_check_rejects_another_optimum():
    pinned = {"columns": 3, "selected": [0, 2]}
    result = SimpleNamespace(path_set=[(), (), ()], solution=SimpleNamespace(selected=(1, 2), lexicographic=True))
    assert checks.lex_problems(result, pinned) == ["selected (1, 2), pinned (0, 2)"]


def test_analyze_check_rejects_p_value_below_the_floor():
    def pearson(x, y):
        from statistics import correlation

        return correlation(x, y)

    columns = [[1, 2, 3, 4], [1, 2, 3, 5], [4, 1, 3, 2]]
    ids = ["1.01", "1.02", "1.03"]
    r = [[pearson(a, b) for b in columns] for a in columns]

    def table(cells):
        lines = ["id," + ",".join(ids)] + [ids[i] + "," + ",".join(f"{v:.6f}" for v in row) for i, row in enumerate(cells)]
        return "\n".join(lines) + "\n"

    good_p = [[1 / 1001 if abs(r[i][j]) >= 0.5 else 0.5 for j in range(3)] for i in range(3)]
    assert checks.analyze_problems(table(r), table(good_p), columns, ids, 1000, pearson) == []
    bad_p = [row[:] for row in good_p]
    bad_p[0][2] = bad_p[2][0] = 0.0
    problems = checks.analyze_problems(table(r), table(bad_p), columns, ids, 1000, pearson)
    assert any("outside" in p for p in problems)


def test_wrong_allocation_verdict_counts_as_failure(tmp_path, monkeypatch):
    from capnet import deltas

    monkeypatch.setattr(workloads, "ALLOCATE_QUERIES", 60)
    monkeypatch.setattr(workloads, "ALLOCATE_ORACLE_SAMPLE", 60)

    honest = workloads.Allocate(3, tmp_path)
    honest.setup()
    honest.run_pass(0)
    honest.after_pass(0)
    assert (honest.attempted, honest.failed) == (60, 0)

    real = deltas.compensate

    def always_direct(*args, **kwargs):
        trace = real(*args, **kwargs)
        return trace.__class__(
            deltas.CompensationOutcome.FEASIBLE_DIRECT,
            (),
            trace.initial_requirements,
            trace.initial_requirements,
            trace.final_report,
        )

    monkeypatch.setattr(deltas, "compensate", always_direct)
    broken = workloads.Allocate(3, tmp_path)
    broken.setup()
    broken.run_pass(0)
    broken.after_pass(0)
    assert broken.attempted == 60
    assert broken.failed > 0
    assert any("feasible_direct on an infeasible start" in p for p in broken.problems)


def test_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SRC", tmp_path / "src")
    with pytest.raises(harness.BenchError):
        harness.use_checkout_sources()


def test_benchmark_json_lists_what_the_runs_emit():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
