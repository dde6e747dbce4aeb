"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines and the sweep report while running).
"""

import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from capnet import network, profiles, stats, synthesis, taxonomy
from capnet.cover import CoverProblem, solve_cover
from capnet.deltas import CompensationOutcome, FuzzyParams, compensate
from capnet.errors import InfeasibleCoverError
from capnet.network import ConjugationGraph, Edge, RelationKind
from capnet.profiles import Phase, Profile, RequirementSet
from capnet.taxonomy import parse_capability_id as pid

from oracles import (
    brute_force_cover,
    exhaustive_shift_feasible,
    has_cycle_dfs,
    ks_distance_from_uniform,
    pearson_two_pass,
)

_cache = {}


def reference_graph():
    if "graph" not in _cache:
        catalog = taxonomy.load_default_catalog()
        built = network.build_graph(network.load_default_interrelations(), catalog)
        pruned = network.prune_weak(built, network.load_default_correlations(), 0.4)
        final = network.augment_strong(pruned, network.load_default_candidates(), repair=True)
        _cache["catalog"] = catalog
        _cache["built"] = built
        _cache["pruned"] = pruned
        _cache["graph"] = final
    return _cache["catalog"], _cache["built"], _cache["pruned"], _cache["graph"]


def default_synthesis():
    if "synthesis" not in _cache:
        catalog, _, _, graph = reference_graph()
        node_set = taxonomy.sitting_over_table_set(catalog)
        _cache["synthesis"] = synthesis.synthesize(graph, node_set, n_min=4, p_max=6, p_hat_max=7)
    return _cache["synthesis"]


def verdict(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_graph_reconstruction():
    started = time.perf_counter()
    catalog, built, pruned, final = reference_graph()
    elapsed = time.perf_counter() - started

    removed = built.edge_pairs() - pruned.edge_pairs()
    assert removed == {
        frozenset((pid("3.04.02"), pid("5.01.04"))),
        frozenset((pid("3.04.08"), pid("5.01.03"))),
        frozenset((pid("3.04.08"), pid("5.01.04"))),
        frozenset((pid("5.01.03"), pid("3.01.03"))),
    }
    added = final.edge_pairs() - pruned.edge_pairs()
    assert added == {
        frozenset((pid("3.03.10"), pid("3.04.10"))),
        frozenset((pid("3.04.06"), pid("3.04.08"))),
        frozenset((pid("3.01.03"), pid("3.02.01"))),
    }
    assert not has_cycle_dfs(final.nodes, [(e.source, e.target) for e in final.edges])
    assert elapsed < 1.0
    verdict(1, f"4 pruned, 3 added, acyclic, {elapsed:.3f}s")


def test_criterion_2_synthesis_coverage():
    started = time.perf_counter()
    catalog, _, _, graph = reference_graph()
    result = synthesis.synthesize(graph, taxonomy.sitting_over_table_set(catalog))
    _cache["synthesis"] = result
    elapsed = time.perf_counter() - started

    node_set = set(taxonomy.sitting_over_table_set(catalog))
    # independent counting pass over the selected sequences
    counts = {}
    for sequence in result.sequences:
        for cap, _level in sequence.steps:
            counts[cap] = counts.get(cap, 0) + 1
    assert set(counts) == node_set
    assert all(6 <= counts[node] <= 7 for node in node_set)
    assert counts == result.solution.visit_counts
    assert elapsed < 60.0
    verdict(2, f"all 22 nodes visited within [6, 7] across {result.solution.objective} sequences, {elapsed:.1f}s")


def test_criterion_3_objective_reference_band():
    catalog, _, _, graph = reference_graph()
    node_set = taxonomy.sitting_over_table_set(catalog)
    sub = graph.restricted_to(node_set)
    paths = synthesis.enumerate_paths(sub, 4)
    report = {}
    for p_hat in (6, 7, 8):
        problem = CoverProblem(
            paths=paths, node_set=tuple(sorted(sub.nodes)), p_max=6, p_hat_max=p_hat
        )
        try:
            report[p_hat] = solve_cover(problem).objective
        except InfeasibleCoverError:
            report[p_hat] = None
    print(f"objective sweep over maximum visits: {report}")
    default = report[7]
    assert default is not None
    assert 18 <= default <= 30
    verdict(3, f"default-bound optimum {default} within [18, 30]; sweep {report}")


def test_criterion_4_solver_exactness():
    started = time.perf_counter()
    rng = random.Random(20250101)
    nodes = [pid(f"9.{i:02d}") for i in range(1, 7)]
    feasible_cases = infeasible_cases = 0
    for _ in range(200):
        n_nodes = rng.randint(2, 6)
        node_set = tuple(nodes[:n_nodes])
        n_paths = rng.randint(1, 14)
        paths = tuple(
            tuple(sorted(rng.sample(node_set, rng.randint(1, n_nodes))))
            for _ in range(n_paths)
        )
        p_max = rng.randint(1, 3)
        p_hat = p_max + rng.randint(0, 2)
        problem = CoverProblem(paths=paths, node_set=node_set, p_max=p_max, p_hat_max=p_hat)
        expected = brute_force_cover(paths, node_set, p_max, p_hat)
        if expected is None:
            infeasible_cases += 1
            with pytest.raises(InfeasibleCoverError):
                solve_cover(problem)
        else:
            feasible_cases += 1
            assert solve_cover(problem).objective == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    verdict(4, f"200 instances ({feasible_cases} feasible, {infeasible_cases} infeasible) match brute force, {elapsed:.1f}s")


def test_criterion_5_requirement_annotation():
    result = default_synthesis()
    pinch, fist = pid("3.04.08"), pid("3.04.02")
    lifts = {pid("5.01.03"), pid("5.01.04")}

    per_capability = {}
    for sequence in result.sequences:
        caps_in_path = {cap for cap, _ in sequence.steps}
        for cap, level in sequence.steps:
            assert 1 <= level <= 6
            per_capability.setdefault(cap, []).append(level)
            if cap in lifts:
                if pinch in caps_in_path:
                    assert level <= 3, f"{cap} at level {level} alongside the pinch grip"
                elif fist in caps_in_path:
                    assert level >= 4, f"{cap} at level {level} alongside the fist grip"

    six_checked = 0
    for cap, levels in per_capability.items():
        if cap not in lifts:
            assert levels == sorted(levels)
            if len(levels) == 6:
                assert levels == [1, 2, 3, 4, 5, 6]
                six_checked += 1
    assert six_checked > 0
    verdict(5, f"{six_checked} six-encounter capabilities carry exactly 1..6; lifting grip bounds hold")


def test_criterion_6_delta_compensation():
    started = time.perf_counter()
    rng = random.Random(424242)
    ids = [pid(f"8.{i:02d}") for i in range(1, 7)]
    all_pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    checked = 0
    while checked < 1000:
        size = rng.randint(2, 6)
        subset = ids[:size]
        reqs = {cap: rng.randint(0, 6) for cap in subset}
        caps = {cap: rng.randint(0, 6) for cap in subset}
        if sum(max(0, reqs[c] - caps[c]) for c in subset) > 6:
            continue
        pairs = [p for p in all_pairs if p[0] in subset and p[1] in subset and rng.random() < 0.5]
        edges = tuple(Edge(a, b, RelationKind.APPEARS_WITH) for a, b in pairs)
        graph = ConjugationGraph(nodes=tuple(subset), edges=edges)
        xi = {cap: rng.randint(0, 2) for cap in subset if rng.random() < 0.3}
        theta = rng.randint(0, 2)
        fuzz = FuzzyParams(xi=xi, theta=theta)
        profile = Profile("agent", Phase.UNSPECIFIED, caps)
        trace = compensate(RequirementSet("k", reqs), profile, graph, fuzz)

        expected = exhaustive_shift_feasible(reqs, caps, {frozenset(p) for p in pairs}, xi, theta)
        got = trace.outcome is not CompensationOutcome.INFEASIBLE
        assert got == expected, f"verdict mismatch on reqs={reqs} caps={caps} pairs={pairs} xi={xi} theta={theta}"
        assert trace.final_requirements.total() == sum(reqs.values())
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    verdict(6, f"1000 triples match the exhaustive shift oracle; requirement sums conserved, {elapsed:.1f}s")


def test_criterion_7_statistics():
    # pearson vs the two-pass oracle on 1000 random vectors
    rng = np.random.default_rng(20240229)
    for _ in range(1000):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert abs(stats.pearson(x, y) - pearson_two_pass(list(x), list(y))) < 1e-12

    # perfectly correlated input floors the p-value at 1/10001
    x = rng.normal(size=200)
    result = stats.permutation_test(x, x, n_resamples=10_000, seed=11)
    assert result.p_value == 1 / 10_001

    # null calibration: 200 seeded independent-column trials at n=476
    pvalues = []
    for seed in range(200):
        trial_rng = np.random.default_rng(7_000 + seed)
        a = trial_rng.normal(size=476)
        b = trial_rng.normal(size=476)
        pvalues.append(stats.permutation_test(a, b, n_resamples=999, seed=seed).p_value)
    distance = ks_distance_from_uniform(pvalues)
    assert distance < 0.15

    # strongly dependent synthetic pair reaches the reported ceiling
    a = rng.normal(size=476)
    b = a + rng.normal(scale=0.05, size=476)
    strong = stats.permutation_test(a, b, n_resamples=10_000, seed=5)
    assert strong.p_value <= 0.0002
    verdict(7, f"oracle match, floor p=1/10001, null KS {distance:.3f} < 0.15, dependent p={strong.p_value:.5f}")


def _run_cli(args, workdir, threads):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "capnet.cli"] + args,
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_determinism(tmp_path):
    graph_args = ["build-graph", "--out-graph", "graph.json"]
    synth_args = [
        "synthesize",
        "--graph",
        "graph.json",
        "--p-max",
        "2",
        "--p-hat-max",
        "3",
        "--out",
        "sequences.csv",
        "--out-text",
        "sequences.txt",
    ]
    gen_args = ["gen-data", "--count", "80", "--seed", "13", "--out", "data.csv"]
    analyze_args = [
        "analyze",
        "--data",
        "data.csv",
        "--resamples",
        "600",
        "--seed",
        "21",
        "--out-corr",
        "corr.csv",
        "--out-pvalues",
        "pvalues.csv",
    ]
    # the other phase branch: every row, pre and post rehabilitation
    analyze_all_args = analyze_args[:-4] + ["--phase", "all", "--out-corr", "corr-all.csv", "--out-pvalues", "pvalues-all.csv"]
    artifacts = (
        "graph.json", "sequences.csv", "sequences.txt", "data.csv", "corr.csv", "pvalues.csv", "corr-all.csv", "pvalues-all.csv"
    )

    outputs = {}
    for label, threads in (("run1", 1), ("run2", 1), ("run4", 4)):
        workdir = tmp_path / label
        workdir.mkdir()
        stdout = []
        for args in (graph_args, gen_args, synth_args, analyze_args, analyze_all_args):
            stdout.append(_run_cli(args, workdir, threads))
        outputs[label] = {name: (workdir / name).read_bytes() for name in artifacts}
        outputs[label]["stdout"] = "\n".join(stdout)

    assert outputs["run1"] == outputs["run2"], "rerun with identical seeds diverged"
    assert outputs["run1"] == outputs["run4"], "thread count changed artifacts"
    verdict(8, "byte-identical artifacts across reruns and 1 vs 4 internal threads")
