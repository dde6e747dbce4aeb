"""The four workloads. Each drives capnet's public entry points only.

A workload is set up once (``setup``, which also builds its inputs), then
runs passes: ``run_pass`` is timed and records one latency per operation,
and ``after_pass`` and ``check`` judge the outputs outside the timed region,
after each pass and after all of them. A single client runs the operations one
after another (closed loop, no concurrency).
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import time
import traceback
from pathlib import Path

import checks
from harness import BENCH_DIR, ORACLES, BenchError

PLAN_OBJECTIVE = 24
PLAN_P_MAX, PLAN_P_HAT_MAX = 6, 7
ANALYZE_AGENTS = 520
ANALYZE_RESAMPLES = 1000
ANALYZE_EXACT_PAIRS = 40
ALLOCATE_AGENTS = 520
ALLOCATE_QUERIES = 5000
ALLOCATE_TRACE_SEED = 20250710
ALLOCATE_ORACLE_SAMPLE = 500
DISPERSION_THRESHOLD = 0.2


def load_oracles():
    spec = importlib.util.spec_from_file_location("capnet_reference_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def default_graph():
    """The default conjugation graph, built as ``capnet build-graph`` builds it."""
    from capnet import network, taxonomy

    catalog = taxonomy.load_default_catalog()
    built = network.build_graph(network.load_default_interrelations(), catalog)
    pruned = network.prune_weak(built, network.load_default_correlations(), 0.4)
    graph = network.augment_strong(pruned, network.load_default_candidates(), repair=True)
    return catalog, graph


def run_cli(args, tracer=None, outputs=()):
    """Run ``capnet <args>`` in-process; returns (exit code, stdout, stderr).

    Any exception is a failed command with exit code -1, not a crash of the
    benchmark.
    """
    from capnet import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.begin(f"cli.{args[0]}") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = cli.main(list(args), standalone_mode=False)
                code = result if isinstance(result, int) else 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = -1
                err.write(traceback.format_exc())
    finally:
        if tracer:
            tracer.end(span)
    if tracer:
        tracer.count("cli.artifact_bytes", sum(Path(p).stat().st_size for p in outputs if Path(p).is_file()))
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> None:
        raise NotImplementedError

    def after_pass(self, index: int) -> None:
        """Judge a pass's outputs right after it; not timed."""

    def check(self) -> None:
        """Judge the outputs once all passes are done; not timed."""

    def record(self, label: str, problems: list[str]) -> None:
        """Count one checked operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def timed(self, op: str, call, latency: bool = True):
        """Run one operation, keeping its latency; exceptions become results."""
        if self.tracer:
            self.tracer.op = op
        started = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation, judged by check()
            result = exc
        if latency:
            self.latencies.append(time.perf_counter() - started)
        return result

    def same_bytes(self, label: str, first: Path, other: Path, names) -> None:
        """Rerun determinism: a pass's artifacts equal the first pass's."""
        differ = [
            n for n in names
            if not ((first / n).is_file() and (other / n).is_file() and (first / n).read_bytes() == (other / n).read_bytes())
        ]
        self.record(label, [f"{n} differs from the first pass" for n in differ])


class Plan(Workload):
    """CLI build-graph then synthesize on the default fixtures."""

    name = "plan"
    artifacts = ("graph.json", "graph.dot", "sequences.csv", "sequences.txt")

    def setup(self):
        from capnet import taxonomy

        self.node_set = taxonomy.sitting_over_table_set(taxonomy.load_default_catalog())
        self.results = []

    def run_pass(self, index):
        out = self.workdir / f"plan-{index}"
        paths = [out / name for name in self.artifacts]
        args = ["build-graph", "--out-graph", str(paths[0]), "--out-dot", str(paths[1])]
        build = self.timed(f"{index}:build-graph", lambda: run_cli(args, self.tracer, paths[:2]), latency=False)
        args = ["synthesize", "--graph", str(paths[0]), "--out", str(paths[2]), "--out-text", str(paths[3])]
        synth = self.timed(f"{index}:synthesize", lambda: run_cli(args, self.tracer, paths[2:]))
        self.results.append((out, build, synth))

    def check(self):
        first = self.results[0][0]
        for index, (out, build, synth) in enumerate(self.results):
            self.record(f"pass {index} build-graph", [] if build[0] == 0 else [f"exit {build[0]}: {build[2][-300:]}"])
            if synth[0] != 0:
                self.record(f"pass {index} synthesize", [f"exit {synth[0]}: {synth[2][-300:]}"])
            else:
                problems = checks.plan_problems(
                    (out / "graph.json").read_text(encoding="utf-8"),
                    (out / "sequences.csv").read_text(encoding="utf-8"),
                    self.node_set,
                    PLAN_P_MAX,
                    PLAN_P_HAT_MAX,
                    PLAN_OBJECTIVE,
                )
                self.record(f"pass {index} synthesize", problems)
            if index:
                self.same_bytes(f"pass {index} rerun", first, out, self.artifacts)


class PlanLex(Workload):
    """synthesis.synthesize on the pinned lexicographic instances."""

    name = "plan-lex"

    def setup(self):
        from capnet.taxonomy import parse_capability_id

        _, self.graph = default_graph()
        self.pool = json.loads((BENCH_DIR / "lex_pool.json").read_text(encoding="utf-8"))["instances"]
        self.nodes = [[parse_capability_id(n) for n in inst["nodes"]] for inst in self.pool]
        self.order = list(range(len(self.pool)))
        random.Random(f"plan-lex/{self.seed}").shuffle(self.order)
        self.results = []

    def run_pass(self, index):
        from capnet import synthesis

        for k in self.order:
            inst = self.pool[k]
            call = lambda: synthesis.synthesize(self.graph, self.nodes[k], inst["n_min"], inst["p_max"], inst["p_hat_max"])
            self.results.append((k, self.timed(f"{index}:{k}", call)))

    def check(self):
        for k, result in self.results:
            if isinstance(result, Exception):
                self.record(f"instance {k}", [repr(result)])
            else:
                self.record(f"instance {k}", checks.lex_problems(result, self.pool[k]))


class Analyze(Workload):
    """CLI analyze with 1000 resamples on a generated 520-agent dataset."""

    name = "analyze"
    artifacts = ("corr.csv", "pvalues.csv")

    def setup(self):
        from capnet import taxonomy

        self.ids = taxonomy.sitting_over_table_set(taxonomy.load_default_catalog())
        self.data = self.workdir / "data.csv"
        code, _, err = run_cli(["gen-data", "--count", str(ANALYZE_AGENTS), "--seed", str(self.seed), "--out", str(self.data)], self.tracer)
        if code != 0:
            raise BenchError(f"gen-data failed with exit {code}: {err[-300:]}")
        self.results = []

    def run_pass(self, index):
        out = self.workdir / f"analyze-{index}"
        paths = [out / name for name in self.artifacts]
        args = ["analyze", "--data", str(self.data), "--resamples", str(ANALYZE_RESAMPLES), "--seed", str(self.seed),
                "--out-corr", str(paths[0]), "--out-pvalues", str(paths[1])]
        self.results.append((out, self.timed(f"{index}:analyze", lambda: run_cli(args, self.tracer, paths))))

    def check(self):
        from capnet import profiles, stats

        oracles = load_oracles()
        data_text = self.data.read_text(encoding="utf-8")
        columns = checks.retained_columns(data_text, self.ids, "post_rehab", DISPERSION_THRESHOLD, oracles.population_std_two_pass)
        retained = len(columns[0])
        first = self.results[0][0]
        for index, (out, (code, stdout, err)) in enumerate(self.results):
            if code != 0:
                self.record(f"pass {index} analyze", [f"exit {code}: {err[-300:]}"])
                continue
            problems = [] if f"retained {retained} of " in stdout else [f"expected {retained} retained profiles: {stdout[:80]!r}"]
            problems += checks.analyze_problems(
                (out / "corr.csv").read_text(encoding="utf-8"),
                (out / "pvalues.csv").read_text(encoding="utf-8"),
                columns,
                self.ids,
                ANALYZE_RESAMPLES,
                oracles.pearson_two_pass,
            )
            self.record(f"pass {index} analyze", problems)
            if index:
                self.same_bytes(f"pass {index} rerun", first, out, self.artifacts)

        kept = profiles.filter_profiles(
            profiles.load_dataset(self.data).with_phase(profiles.Phase.POST_REHAB), self.ids, DISPERSION_THRESHOLD
        )
        matrix = stats.correlation_matrix(kept, self.ids)
        n = len(self.ids)
        pairs = random.Random(f"analyze-exact/{self.seed}").sample([(i, j) for i in range(n) for j in range(i + 1, n)], ANALYZE_EXACT_PAIRS)
        problems = [] if len(kept) == retained else [f"library keeps {len(kept)} profiles, oracle {retained}"]
        self.record("exact r", problems + checks.exact_r_problems(matrix, columns, pairs, oracles.pearson_two_pass))


class Allocate(Workload):
    """A fixed trace of compensate queries against an in-memory allocation service.

    The trace (agents and queries) comes from ALLOCATE_TRACE_SEED, not from
    the run's seed, which only orders the queries. The cost of a query has a
    heavy tail: counted in shift-candidate evaluations, which machine noise
    does not touch, the p99 of independently drawn 5,000-query streams varied
    by about a quarter, more than a run-to-run bound can absorb.
    """

    name = "allocate"

    def setup(self):
        from capnet import profiles, taxonomy
        from capnet.deltas import FuzzyParams

        catalog, self.graph = default_graph()
        over_table = taxonomy.sitting_over_table_set(catalog)
        config = profiles.GeneratorConfig(ids=tuple(over_table), agents=ALLOCATE_AGENTS)
        dataset = profiles.generate_synthetic_profiles(config, ALLOCATE_TRACE_SEED).with_phase(profiles.Phase.POST_REHAB)
        kept = profiles.filter_profiles(dataset, over_table, DISPERSION_THRESHOLD)
        agents = [profiles.propagate_main_level(p) for p in kept]
        self.pairs = self.graph.edge_pairs()

        # Actions of 2-12 over-table capabilities near the agent's capacity.
        rng = random.Random(ALLOCATE_TRACE_SEED)
        self.queries = []
        for n in range(ALLOCATE_QUERIES):
            agent = rng.choice(agents)
            ids = rng.sample(over_table, rng.randint(2, 12))
            reqs = {c: min(6, max(0, agent.values[c] + rng.randint(-2, 2))) for c in ids}
            xi = {c: rng.randint(0, 2) for c in ids if rng.random() < 0.3}
            theta = rng.randint(0, 3)
            self.queries.append((agent, profiles.RequirementSet(f"q{n}", reqs), FuzzyParams(xi=xi, theta=theta)))
        random.Random(f"allocate/{self.seed}").shuffle(self.queries)
        self.results = []

    def run_pass(self, index):
        from capnet import deltas

        for n, (agent, reqs, fuzz) in enumerate(self.queries):
            trace = self.timed(f"{index}:{n}", lambda: deltas.compensate(reqs, agent, self.graph, fuzz))
            self.results.append((agent, reqs, fuzz, trace))

    def after_pass(self, index):
        """Judge the pass's queries and drop them, so memory stays flat."""
        oracles = load_oracles()
        sample = set()
        if index == 0:
            sample = set(random.Random(f"allocate-oracle/{self.seed}").sample(range(len(self.results)), ALLOCATE_ORACLE_SAMPLE))
        for n, (agent, reqs, fuzz, trace) in enumerate(self.results):
            if isinstance(trace, Exception):
                self.record(f"query {index}.{n}", [repr(trace)])
                continue
            requirements = dict(reqs.requirements)
            capacities = {c: agent.values[c] for c in requirements}
            problems = checks.allocation_problems(requirements, capacities, fuzz.xi, fuzz.theta, self.pairs, trace)
            if n in sample:
                expected = oracles.exhaustive_shift_feasible(requirements, capacities, self.pairs, fuzz.xi, fuzz.theta)
                if expected != (trace.outcome.value != "infeasible"):
                    problems.append(f"verdict {trace.outcome.value}, oracle says feasible={expected}")
            self.record(f"query {index}.{n}", problems)
        self.results = []


WORKLOADS = {cls.name: cls for cls in (Plan, PlanLex, Analyze, Allocate)}
