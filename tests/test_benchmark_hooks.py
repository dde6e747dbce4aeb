"""The traced benchmark run wraps capnet functions by name; check every name still resolves.

``perfbench/layers.py`` swaps module attributes of capnet for span-recording
wrappers. Deleting or renaming one of those attributes would break only the
traced benchmark, so this loads the benchmark's tracer and layer table (read
only, no bytecode written), instruments, runs a p-value table and the
default plan through the wrappers, and restores.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from capnet import cover, deltas, network, profiles, stats, synthesis, taxonomy

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (cover, deltas, network, profiles, stats, synthesis, taxonomy)


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # layers imports tracing by this name
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {(module.__name__, attr): value for module in MODULES for attr, value in vars(module).items()}


def test_benchmark_instrument_wraps_and_restores(monkeypatch, final_graph, sitting_set):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load("tracing", monkeypatch)
    layers = _load("layers", monkeypatch)

    before = _attributes()
    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer)
        during = _attributes()
        # the stats hook binds n_resamples by name and counts the defined pairs of the result
        ids = taxonomy.sitting_over_table_set(taxonomy.load_default_catalog())[:3]
        data = np.array([[0, 1, 4], [1, 3, 4], [2, 2, 4], [3, 5, 4]], dtype=float)
        stats.pairwise_permutation_pvalues(data, ids, 7, seed=1)
        # the default plan prices its paths: the traced solver calls are its LPs and MIPs
        plan = synthesis.synthesize(final_graph, sitting_set)
    finally:
        tracer.restore()
    wrapped = {key for key, value in during.items() if value is not before[key]}
    assert ("capnet.synthesis", "synthesize") in wrapped
    assert ("capnet.profiles", "generate_synthetic_profiles") in wrapped
    assert ("capnet.cover", "milp") in wrapped  # the traced cover.solver_calls counter
    assert ("capnet.cover", "linprog") in wrapped
    assert ("capnet.stats", "pairwise_permutation_pvalues") in wrapped
    counters = tracer.phases[-1].counters
    assert counters["stats.pairs"] == 1  # the third column is constant
    assert counters["stats.resamples"] == 7
    assert plan.solution.objective == 24
    assert counters["cover.solver_calls"] >= 2
    assert all(during[key].__wrapped__ is before[key] for key in wrapped)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
