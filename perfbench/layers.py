"""Which capnet functions the traced run wraps, and the per-layer metrics.

Every function is wrapped at the name it is called through: the CLI and the
benchmark call ``network.build_graph``, ``synthesis.synthesize`` and so on
as module attributes; ``synthesize`` calls ``solve_cover`` as a global of
``capnet.synthesis``; ``solve_cover`` calls ``verify_cover`` and the scipy
solver as globals of ``capnet.cover``.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict

import tracing

# (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cover.solve_s", "s", "lower"),
    ("cover.solver_calls", "count", "lower"),
    ("cover.solver_s", "s", "lower"),
    ("cover.columns", "count", "lower"),
    ("cover.lexicographic", "count", "higher"),
    ("cover.verify_s", "s", "lower"),
    ("cover.self_s", "s", "lower"),
    ("synthesis.enumerate_s", "s", "lower"),
    ("synthesis.paths", "count", "lower"),
    ("synthesis.annotate_s", "s", "lower"),
    ("synthesis.self_s", "s", "lower"),
    ("stats.pvalues_s", "s", "lower"),
    ("stats.corr_s", "s", "lower"),
    ("stats.pairs", "count", "higher"),
    ("stats.resamples", "count", "higher"),
    ("stats.resamples_per_s", "1/s", "higher"),
    ("stats.self_s", "s", "lower"),
    ("profiles.generate_s", "s", "lower"),
    ("profiles.load_s", "s", "lower"),
    ("profiles.filter_s", "s", "lower"),
    ("profiles.rows", "count", "higher"),
    ("profiles.retained_ratio", "ratio", "higher"),
    ("profiles.propagate_s", "s", "lower"),
    ("profiles.self_s", "s", "lower"),
    ("deltas.compensate_s", "s", "lower"),
    ("deltas.queries", "count", "higher"),
    ("deltas.feasible_direct", "count", "higher"),
    ("deltas.compensated", "count", "higher"),
    ("deltas.infeasible", "count", "lower"),
    ("deltas.shift_units", "count", "lower"),
    ("deltas.self_s", "s", "lower"),
    ("network.load_s", "s", "lower"),
    ("network.build_s", "s", "lower"),
    ("network.io_s", "s", "lower"),
    ("network.nodes", "count", "higher"),
    ("network.edges", "count", "higher"),
    ("network.self_s", "s", "lower"),
    ("taxonomy.load_s", "s", "lower"),
    ("taxonomy.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# Time metrics that are the summed duration of one span name.
SPAN_METRICS = {
    "cover.solve_s": "cover.solve",
    "cover.solver_s": "cover.solver",
    "cover.verify_s": "cover.verify",
    "synthesis.enumerate_s": "synthesis.enumerate",
    "synthesis.annotate_s": "synthesis.annotate",
    "stats.pvalues_s": "stats.pvalues",
    "stats.corr_s": "stats.corr",
    "profiles.generate_s": "profiles.generate",
    "profiles.load_s": "profiles.load",
    "profiles.filter_s": "profiles.filter",
    "profiles.propagate_s": "profiles.propagate",
    "deltas.compensate_s": "deltas.compensate",
    "network.load_s": "network.load",
    "network.build_s": "network.build",
    "network.io_s": "network.io",
    "taxonomy.load_s": "taxonomy.load",
}
LAYERS = ("cover", "synthesis", "stats", "profiles", "deltas", "network", "taxonomy", "cli")


def instrument(tracer: tracing.Tracer) -> None:
    """Wrap every traced capnet function; ``tracer.restore()`` undoes it."""
    from capnet import cover, deltas, network, profiles, stats, synthesis, taxonomy

    def graph_size(t, args, kwargs, graph):
        t.gauges["network.nodes"] = len(graph.nodes)
        t.gauges["network.edges"] = len(graph.edges)

    def cover_solved(t, args, kwargs, solution):
        problem = args[0] if args else kwargs["problem"]
        t.count("cover.columns", len(problem.paths))
        t.count("cover.lexicographic", int(solution.lexicographic))

    pvalues_signature = inspect.signature(stats.pairwise_permutation_pvalues)

    def pvalues_done(t, args, kwargs, matrix):
        n = len(matrix.ids)
        call = pvalues_signature.bind(*args, **kwargs)
        call.apply_defaults()
        t.count("stats.pairs", sum(1 for i in range(n) for j in range(i + 1, n) if not math.isnan(matrix.r[i, j])))
        t.count("stats.resamples", call.arguments["n_resamples"])

    def filtered(t, args, kwargs, kept):
        t.count("profiles.filter_in", len(args[0] if args else kwargs["dataset"]))
        t.count("profiles.filter_kept", len(kept))

    def compensated(t, args, kwargs, trace):
        t.count("deltas.queries")
        t.count({"feasible_direct": "deltas.feasible_direct",
                 "feasible_after_compensation": "deltas.compensated",
                 "infeasible": "deltas.infeasible"}[trace.outcome.value])
        t.count("deltas.shift_units", sum(step.amount for step in trace.steps))

    wraps = [
        (taxonomy, "load_default_catalog", "taxonomy.load", None),
        (taxonomy, "load_catalog", "taxonomy.load", None),
        (network, "load_default_interrelations", "network.load", None),
        (network, "load_default_candidates", "network.load", None),
        (network, "load_default_correlations", "network.load", None),
        (network, "build_graph", "network.build", None),
        (network, "prune_weak", "network.build", None),
        (network, "augment_strong", "network.build", graph_size),
        (network, "export_graph", "network.io", None),
        (network, "import_graph", "network.io", graph_size),
        (synthesis, "synthesize", "synthesis.synthesize", None),
        (synthesis, "enumerate_paths", "synthesis.enumerate", lambda t, a, k, r: t.count("synthesis.paths", len(r))),
        (synthesis, "annotate_requirements", "synthesis.annotate", None),
        (synthesis, "solve_cover", "cover.solve", cover_solved),
        (cover, "verify_cover", "cover.verify", None),
        (stats, "correlation_matrix", "stats.corr", None),
        (stats, "pairwise_permutation_pvalues", "stats.pvalues", pvalues_done),
        (profiles, "generate_synthetic_profiles", "profiles.generate", None),
        (profiles, "write_dataset", "profiles.write", None),
        (profiles, "load_dataset", "profiles.load", lambda t, a, k, r: t.count("profiles.rows", len(r))),
        (profiles, "filter_profiles", "profiles.filter", filtered),
        (profiles, "propagate_main_level", "profiles.propagate", None),
        (deltas, "compensate", "deltas.compensate", compensated),
    ]
    # Whatever scipy.optimize solver the cover module imports is its solver.
    for attr, value in sorted(vars(cover).items()):
        if inspect.isfunction(value) and value.__module__.startswith("scipy.optimize"):
            wraps.append((cover, attr, "cover.solver", lambda t, a, k, r: t.count("cover.solver_calls")))
    for owner, attr, name, on_result in wraps:
        tracer.wrap(owner, attr, name, on_result)


def per_layer_metrics(tracer: tracing.Tracer, overhead_s: float) -> dict:
    """Per-layer values of the set-up plus one average traced pass."""
    tracer.finish()
    spans = tracer.spans
    self_time = tracing.self_times(spans)
    top = tracing.outermost(spans)
    passes = len(tracer.phases) - 1
    inclusive: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    for phase in tracer.phases:
        weight = 1.0 if phase.name == "setup" else 1.0 / passes
        for i in range(phase.first, phase.end):
            span = spans[i]
            if top[i]:
                inclusive[span.name] += weight * span.duration
            layer_self[span.layer] += weight * self_time[i]
        for name, value in phase.counters.items():
            counters[name] += weight * value
        counters["trace.spans"] += weight * (phase.end - phase.first)

    values = {metric: inclusive[span] for metric, span in SPAN_METRICS.items()}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    pair_resamples = counters["stats.pairs"] * counters["stats.resamples"]
    values["stats.resamples_per_s"] = pair_resamples / values["stats.pvalues_s"] if values["stats.pvalues_s"] else 0.0
    kept, seen = counters["profiles.filter_kept"], counters["profiles.filter_in"]
    values["profiles.retained_ratio"] = kept / seen if seen else 0.0
    values["trace.overhead_s"] = overhead_s
    values.update(tracer.gauges)
    for name, _, _ in PER_LAYER:
        values.setdefault(name, counters[name])
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
