import contextlib
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capnet import cover, network, synthesis
from capnet.cover import CoverProblem, solve_cover, solve_priced_cover, verify_cover
from capnet.errors import AnnotationError, ConfigError, InfeasibleCoverError
from capnet.network import ConjugationGraph, Edge, RelationKind
from capnet.synthesis import (
    MovementSequence,
    PathPricer,
    annotate_requirements,
    enumerate_paths,
    lint_sequences,
    name_sequence,
    sequences_to_csv,
    sequences_to_text,
)
from capnet.taxonomy import parse_capability_id as pid

from oracles import (
    brute_force_cover,
    brute_force_lex_min_cover,
    cover_lp_bound,
    has_cycle_dfs,
    largest_antichain_by_subsets,
    lex_min_cover_by_columns,
    simple_paths_by_permutations,
)

A, B, C, D, E = (pid(f"9.{i:02d}") for i in range(1, 6))
LEX_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "lex_pool.json"


# PathPricer.best at every weight 1.0 on the default sitting subgraph, k = 20: sums and tie order
_UNIT_WEIGHT_BEST = [
    (15.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (15.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.03 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.03 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.03 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.03 3.03.04 1.06.01 1.06.02 3.03.10 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.03 3.03.04 1.06.01 1.06.02 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.01.02 3.02.03 3.03.04 1.06.01 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.02 3.01.01 3.01.02 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.03 3.02.01 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.01 3.02.03 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 1.05.02 3.01.02 3.02.03 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
    (14.0, "1.05.01 3.01.01 3.01.02 3.02.03 3.03.04 1.06.01 1.06.02 3.03.10 3.04.02 3.04.06 3.04.08 5.01.01 5.01.03 5.01.04"),
]


def chain_graph(*nodes):
    rel = RelationKind.CONDITION_FOR
    edges = tuple(Edge(a, b, rel) for a, b in zip(nodes, nodes[1:]))
    return ConjugationGraph(nodes=tuple(sorted(nodes)), edges=edges)


class TestEnumeratePaths:
    def test_chain_of_four(self):
        graph = chain_graph(A, B, C, D)
        paths = enumerate_paths(graph, 4)
        assert list(paths) == [(A, B, C, D)]

    def test_chain_of_three_empty(self):
        graph = chain_graph(A, B, C)
        assert len(enumerate_paths(graph, 4)) == 0

    def test_reference_graph_contains_overhead_press_path(self, final_graph, sitting_set):
        sub = final_graph.restricted_to(sitting_set)
        paths = enumerate_paths(sub, 4)
        target = tuple(pid(x) for x in ("3.03.02", "1.06.02", "3.03.10", "3.04.10"))
        assert target in set(paths)

    def test_paths_are_simple_and_edge_respecting(self, final_graph, sitting_set):
        sub = final_graph.restricted_to(sitting_set)
        edge_set = {(e.source, e.target) for e in sub.edges}
        paths = enumerate_paths(sub, 4)
        sample = random.Random(3).sample(list(paths), 200)
        for path in sample:
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert (a, b) in edge_set

    def test_lexicographic_order(self):
        rel = RelationKind.CONDITION_FOR
        graph = ConjugationGraph(
            nodes=(A, B, C, D, E),
            edges=(
                Edge(A, B, rel),
                Edge(A, C, rel),
                Edge(B, D, rel),
                Edge(C, D, rel),
                Edge(D, E, rel),
            ),
        )
        paths = list(enumerate_paths(graph, 3))
        assert paths == sorted(paths)

    def test_minimum_length_is_lower_bound(self, final_graph, sitting_set):
        sub = final_graph.restricted_to(sitting_set)
        paths = enumerate_paths(sub, 6)
        assert all(len(p) >= 6 for p in paths)


@st.composite
def _dags(draw):
    """Up to 7 nodes; each pair joined or not, oriented along a drawn order."""
    nodes = [pid(f"9.{k:02d}") for k in range(1, draw(st.integers(1, 7)) + 1)]
    order = draw(st.permutations(nodes))
    rel = RelationKind.CONDITION_FOR
    edges = tuple(
        Edge(order[i], order[j], rel) for i in range(len(order)) for j in range(i + 1, len(order)) if draw(st.booleans())
    )
    return ConjugationGraph(nodes=tuple(nodes), edges=edges)


class TestPathPricer:
    @given(_dags(), st.integers(1, 5))
    def test_count_matches_enumeration(self, graph, n_min):
        paths = enumerate_paths(graph, n_min)
        arcs = [(edge.source, edge.target) for edge in graph.edges]
        assert list(paths) == simple_paths_by_permutations(graph.nodes, arcs, n_min)
        assert PathPricer(graph, n_min).count == len(paths)

    @given(_dags(), st.integers(1, 4), st.lists(st.integers(-3, 3), min_size=7, max_size=7), st.integers(1, 12))
    def test_best_matches_enumeration(self, graph, n_min, weights, k):
        # integer weights keep every sum exact, so ranks compare without rounding
        weight = {node: float(w) for node, w in zip(graph.nodes, weights)}
        paths = enumerate_paths(graph, n_min)
        total = {path: sum(weight[node] for node in path) for path in paths}
        pricer = PathPricer(graph, n_min)
        ranked = pricer.best(weight, k)
        assert [value for value, _ in ranked] == sorted(total.values(), reverse=True)[:k]
        assert all(total[path] == value for value, path in ranked)
        assert len({path for _, path in ranked}) == len(ranked)

    def test_walk_on_complete_dag_prunes_by_longest_path(self):
        # 2^39 paths start at the first of 40 nodes; only the longest-path prune finishes the walk
        nodes = tuple(pid(f"9.{k:02d}") for k in range(1, 41))
        rel = RelationKind.CONDITION_FOR
        graph = ConjugationGraph(nodes=nodes, edges=tuple(Edge(a, b, rel) for a in nodes for b in nodes if a < b))
        assert enumerate_paths(graph, 41) == ()
        assert enumerate_paths(graph, 40) == (nodes,)

    def test_path_longer_than_the_recursion_limit(self):
        nodes = tuple(pid(f"9.{k:02d}") for k in range(1, 1101))
        graph = chain_graph(*nodes)
        assert PathPricer(graph, 1100).count == 1
        assert enumerate_paths(graph, 1100) == (nodes,)
        assert enumerate_paths(graph, 1101) == ()

    def test_best_tie_order_on_the_default_graph(self, final_graph, sitting_set):
        # unit weights make every sum an exact node count, so the order is the DP's alone, whatever the HiGHS version
        sub = final_graph.restricted_to(sitting_set)
        ranked = PathPricer(sub, 4).best(dict.fromkeys(sub.nodes, 1.0), 20)
        assert [(total, " ".join(map(str, path))) for total, path in ranked] == _UNIT_WEIGHT_BEST

    def test_n_min_beyond_any_path_allocates_nothing(self, final_graph, sitting_set):
        sub = final_graph.restricted_to(sitting_set)
        pricer = PathPricer(sub, 2**62)
        assert pricer.count == 0 and pricer.n_min == len(sub.nodes) + 1
        assert pricer.best(dict.fromkeys(sub.nodes, 1.0), 5) == []
        assert enumerate_paths(sub, 2**62) == ()


class TestSolveCover:
    def test_seven_identical_paths_lexicographic(self):
        paths = tuple((A, B) for _ in range(7))
        problem = CoverProblem(paths=paths, node_set=(A, B), p_max=6, p_hat_max=7)
        solution = solve_cover(problem)
        assert solution.objective == 6
        assert solution.selected == (0, 1, 2, 3, 4, 5)
        assert solution.lexicographic

    def test_undercovered_node_reported(self):
        paths = tuple((A, C) for _ in range(5))
        problem = CoverProblem(paths=paths, node_set=(A, C), p_max=6, p_hat_max=7)
        with pytest.raises(InfeasibleCoverError) as err:
            solve_cover(problem)
        assert C in err.value.binding_nodes

    def test_binding_nodes_pinned_on_seeded_infeasible_instances(self):
        # Every node lies on p_max paths, so each verdict names the greedy
        # diagnostic's nodes. A new digest only with a declared change of it.
        rng = random.Random(7)
        nodes = [pid(f"1.0{k}") for k in range(1, 9)]
        named = []
        for _ in range(300):
            node_set = tuple(nodes[: rng.randint(4, 8)])
            paths = tuple(
                tuple(sorted(rng.sample(node_set, rng.randint(2, len(node_set)))))
                for _ in range(rng.randint(5, 12))
            )
            p_max = rng.randint(2, 3)
            if min(sum(n in p for p in paths) for n in node_set) < p_max:
                continue
            try:
                solve_cover(CoverProblem(paths=paths, node_set=node_set, p_max=p_max, p_hat_max=p_max))
            except InfeasibleCoverError as err:
                named.append(" ".join(map(str, err.binding_nodes)))
        assert len(named) == 67
        digest = hashlib.sha256("\n".join(named).encode()).hexdigest()
        assert digest == "515e7043c32a5f7986201057791c8f4b66cd4e89c5d2a3379f054ee603623e59"

    def test_brute_force_objective_agreement(self):
        rng = random.Random(404)
        nodes = [A, B, C, D, E]
        for _ in range(100):
            n_nodes = rng.randint(2, 5)
            node_set = tuple(nodes[:n_nodes])
            n_paths = rng.randint(1, 12)
            paths = tuple(
                tuple(sorted(rng.sample(node_set, rng.randint(1, n_nodes))))
                for _ in range(n_paths)
            )
            p_max = rng.randint(1, 3)
            p_hat = p_max + rng.randint(0, 2)
            problem = CoverProblem(paths=paths, node_set=node_set, p_max=p_max, p_hat_max=p_hat)
            expected = brute_force_cover(paths, node_set, p_max, p_hat)
            if expected is None:
                with pytest.raises(InfeasibleCoverError):
                    solve_cover(problem)
            else:
                assert solve_cover(problem).objective == expected

    def test_lexicographic_minimum_matches_brute_force(self):
        rng = random.Random(1616)
        nodes = [A, B, C, D]
        for _ in range(60):
            node_set = tuple(nodes[: rng.randint(2, 4)])
            n_paths = rng.randint(2, 15)
            paths = tuple(
                tuple(sorted(rng.sample(node_set, rng.randint(1, len(node_set)))))
                for _ in range(n_paths)
            )
            p_max = rng.randint(1, 3)
            problem = CoverProblem(paths=paths, node_set=node_set, p_max=p_max, p_hat_max=p_max + 1)
            expected = brute_force_lex_min_cover(paths, node_set, p_max, p_max + 1)
            if expected is None:
                with pytest.raises(InfeasibleCoverError):
                    solve_cover(problem)
            else:
                assert solve_cover(problem).selected == expected

    def test_independent_recount_on_solution(self):
        paths = tuple((A, B) for _ in range(7))
        problem = CoverProblem(paths=paths, node_set=(A, B), p_max=6, p_hat_max=7)
        solution = solve_cover(problem)
        counts = verify_cover(problem, solution.selected)
        assert counts == {A: 6, B: 6}
        with pytest.raises(AnnotationError):
            verify_cover(problem, (0,))

    def test_solver_without_verdict_is_an_error(self, monkeypatch):
        from scipy.optimize import OptimizeResult

        import capnet.cover

        stopped = OptimizeResult(status=1, message="time limit reached", x=None)
        monkeypatch.setattr(capnet.cover, "milp", lambda *args, **kwargs: stopped)
        problem = CoverProblem(paths=((A, B),), node_set=(A, B), p_max=1, p_hat_max=1)
        with pytest.raises(AnnotationError, match="status 1"):
            solve_cover(problem)

    def test_empty_node_set(self):
        problem = CoverProblem(paths=((A,),), node_set=(), p_max=1, p_hat_max=1)
        assert solve_cover(problem).objective == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            CoverProblem(paths=((A,),), node_set=(A,), p_max=2, p_hat_max=1)
        with pytest.raises(ConfigError):
            CoverProblem(paths=((A,),), node_set=(A,), p_max=0, p_hat_max=1)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: CoverProblem(paths=((A,),), node_set=(A, B, A)), ConfigError, "node_set contains duplicates"),
            (lambda: CoverProblem(paths=((A, A, B), (B,)), node_set=(A, B), p_max=1, p_hat_max=1), ConfigError,
             "path 9.01 9.01 9.02 visits a node more than once"),
            (lambda: PathPricer(ConjugationGraph(nodes=(A,), edges=()), 0), ValueError, "n_min must be >= 1, got 0"),
            (lambda: enumerate_paths(ConjugationGraph(nodes=(A,), edges=()), 0), ValueError, "n_min must be >= 1, got 0"),
        ],
        ids=["cover-repeated-node", "cover-path-revisits-a-node", "pricer-n-min-zero", "enumerate-n-min-zero"],
    )
    def test_malformed_input_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


class TestLexicographicCover:
    def test_matches_column_oracle_on_default_graph_subsets(self, final_graph, sitting_set):
        rng = random.Random(7)
        feasible = 0
        while feasible < 20:
            sub = final_graph.restricted_to(sorted(rng.sample(sitting_set, rng.randint(6, 12))))
            paths = enumerate_paths(sub, 4)
            if not 20 <= len(paths) <= 80:
                continue
            p_max = rng.randint(1, 3)
            p_hat = p_max + rng.randint(1, 3)
            problem = CoverProblem(paths=paths, node_set=sub.nodes, p_max=p_max, p_hat_max=p_hat)
            expected = lex_min_cover_by_columns(paths, sub.nodes, p_max, p_hat)
            if expected is None:
                with pytest.raises(InfeasibleCoverError):
                    solve_cover(problem)
            else:
                assert solve_cover(problem).selected == expected
                feasible += 1

    def test_pinned_benchmark_instances(self, final_graph, milp_calls, monkeypatch):
        from capnet.synthesis import synthesize

        columns, spy = [], cover.milp
        monkeypatch.setattr(cover, "milp", lambda c, **kwargs: columns.append(len(c)) or spy(c, **kwargs))
        # The plan-lex benchmark's instances (131-489 columns), read only.
        pool = json.loads(LEX_POOL.read_text(encoding="utf-8"))["instances"]
        for inst in pool:
            nodes = [pid(n) for n in inst["nodes"]]
            result = synthesize(final_graph, nodes, inst["n_min"], inst["p_max"], inst["p_hat_max"])
            assert len(result.path_set) == inst["columns"]
            assert result.solution.selected == tuple(inst["selected"])
            assert result.solution.lexicographic
        mips = sum(integral for integral, _ in milp_calls)
        # 5 first solves and 51 probes over the columns that meet every maximum antichain, each
        # an LP first and a MIP only when its LP point is fractional: here one probe of the
        # 351-column instance. Unfiltered, the five took 63 calls over 12,910 columns.
        assert mips <= 2
        assert len(milp_calls) <= 57
        assert sum(columns) <= 6129

    def test_fractional_lp_probe_is_not_trusted(self, milp_calls):
        # Paths of the complete DAG on 4-8 nodes, every node visited exactly p_max times.
        # On these draws some probe's LP is feasible but fractional, and rounding its point
        # gives a selection that violates the visit bounds: only the probe's MIP settles it.
        rng = random.Random(23)
        settled = 0
        for _ in range(40):
            nodes = tuple(pid(f"9.{i:02d}") for i in range(1, rng.randint(4, 8) + 1))
            paths = tuple(tuple(sorted(rng.sample(nodes, rng.randint(2, len(nodes))))) for _ in range(rng.randint(6, 40)))
            p_max = rng.randint(2, 3)
            milp_calls.clear()
            try:
                selected = solve_cover(CoverProblem(paths=paths, node_set=nodes, p_max=p_max, p_hat_max=p_max)).selected
            except InfeasibleCoverError:
                selected = None
            if any(not integral and res.status == 0 and not np.allclose(res.x, np.round(res.x)) for integral, res in milp_calls):
                assert selected == lex_min_cover_by_columns(paths, nodes, p_max, p_max)
                settled += 1
        assert settled >= 1  # 2 with scipy 1.17

    def test_fractional_first_lp_falls_back_to_the_mip(self, milp_calls):
        # As above with p_hat_max = p_max or p_max + 1. Every draw must equal the column
        # oracle: trusting a fractional first LP point, rounded, either breaks the visit
        # bounds or, with the slack, keeps a selection larger than the optimum.
        rng = random.Random(23)
        fell_back = 0
        for _ in range(40):
            nodes = tuple(pid(f"9.{i:02d}") for i in range(1, rng.randint(4, 8) + 1))
            paths = tuple(tuple(sorted(rng.sample(nodes, rng.randint(2, len(nodes))))) for _ in range(rng.randint(6, 40)))
            p_max = rng.randint(2, 3)
            p_hat = p_max + rng.randint(0, 1)
            milp_calls.clear()
            try:
                selected = solve_cover(CoverProblem(paths=paths, node_set=nodes, p_max=p_max, p_hat_max=p_hat)).selected
            except InfeasibleCoverError:
                selected = None
            assert selected == lex_min_cover_by_columns(paths, nodes, p_max, p_hat)
            (first_integral, first), *rest = milp_calls
            assert not first_integral
            if first.status == 0 and not np.allclose(first.x, np.round(first.x), rtol=0, atol=1e-9):
                assert rest[0][0]  # the first solve's MIP
                fell_back += 1
        assert fell_back >= 1  # 4 with scipy 1.17

    @pytest.mark.parametrize(
        "paths, mips",
        [
            (((A, B), (A, C)), 0),  # B and C force both paths, which visit A twice: no LP point
            (((A, B), (B, C), (A, C)), 1),  # every path at 1/2 is the LP point, and no selection exists
        ],
        ids=["lp-infeasible", "fractional"],
    )
    def test_infeasible_first_solve_names_the_greedy_nodes(self, milp_calls, paths, mips):
        with pytest.raises(InfeasibleCoverError) as err:
            solve_cover(CoverProblem(paths=paths, node_set=(A, B, C), p_max=1, p_hat_max=1))
        assert err.value.binding_nodes == (C,)
        assert sum(integral for integral, _ in milp_calls) == mips
        assert len(milp_calls) == 1 + mips

    def test_lp_probe_without_verdict_is_an_error(self, monkeypatch):
        from scipy.optimize import OptimizeResult

        # Exact cover of A, B, C: the least index sum is {1, 2}, so the descent probes [0, 1).
        problem = CoverProblem(paths=((A, B), (A,), (B, C), (A, C), (B,), (C,)), node_set=(A, B, C), p_max=1, p_hat_max=1)
        assert solve_cover(problem).selected == (0, 5)
        real = cover.milp
        stopped = OptimizeResult(status=1, message="iteration limit reached", x=None)

        def milp(c, integrality, constraints, **kwargs):
            # a probe's LP, the only program with more rows than the three visit rows, gets no verdict
            if not integrality.any() and constraints.A.shape[0] > 3:
                return stopped
            return real(c, integrality=integrality, constraints=constraints, **kwargs)

        monkeypatch.setattr(cover, "milp", milp)
        with pytest.raises(AnnotationError, match=r"LP solver gave no verdict \(status 1"):
            solve_cover(problem)

    def test_fractional_probe_point_runs_the_probe_mip(self, final_graph, sitting_set, monkeypatch):
        # Every feasible probe LP's integral point x is reported as 0.9·x + 0.05: fractional,
        # yet it rounds back to x, which meets the probe's rows. Only the probe's MIP may settle it.
        real = cover.milp
        calls = []

        def milp(c, integrality, constraints, **kwargs):
            res = real(c, integrality=integrality, constraints=constraints, **kwargs)
            probe_lp = not integrality.any() and constraints.A.shape[0] == len(sub.nodes) + 2
            blurred = probe_lp and res.status == 0 and np.allclose(res.x, np.round(res.x), rtol=0, atol=1e-9)
            if blurred:
                res.x = 0.9 * res.x + 0.05
            calls.append((bool(integrality.any()), blurred))
            return res

        monkeypatch.setattr(cover, "milp", milp)
        rng = random.Random(2)
        blurred_count = drawn = 0
        while drawn < 20:
            sub = final_graph.restricted_to(sorted(rng.sample(sitting_set, rng.randint(6, 12))))
            paths = enumerate_paths(sub, 3)
            if not 20 <= len(paths) <= 120:
                continue
            drawn += 1
            p_max = rng.randint(1, 2)
            p_hat = p_max + rng.randint(0, 1)
            calls.clear()
            try:
                selected = solve_cover(CoverProblem(paths=paths, node_set=sub.nodes, p_max=p_max, p_hat_max=p_hat)).selected
            except InfeasibleCoverError:
                selected = None
            assert selected == lex_min_cover_by_columns(paths, sub.nodes, p_max, p_hat)
            for (_, blurred), (next_integral, _) in zip(calls, calls[1:] + [(False, False)]):
                assert next_integral or not blurred  # each blurred probe LP is followed by its MIP
            blurred_count += sum(blurred for _, blurred in calls)
        assert blurred_count >= 5  # 11 with scipy 1.17

    @pytest.mark.parametrize("case", ["window-to-the-end", "window-of-one", "prefix-at-the-cap"])
    def test_probe_rows_match_a_dense_reference(self, case):
        # The reference takes the full visit matrix's columns low:, the visit bounds minus the
        # prefix's visits, a cap row of k* - |prefix| and a window row over [low, high).
        rng = random.Random(f"probe-rows/{case}")
        nodes = [A, B, C, D, E]
        checked = 0
        while checked < 30:
            node_set = tuple(nodes[: rng.randint(2, 5)])
            paths = tuple(tuple(sorted(rng.sample(node_set, rng.randint(1, len(node_set))))) for _ in range(rng.randint(3, 20)))
            eta = cover._visit_rows(paths, node_set)
            W = len(eta)
            p_max = rng.randint(1, 2)
            p_hat = p_max + (0 if case == "prefix-at-the-cap" else rng.randint(0, 2))
            low = rng.randint(1, W - 1)
            prefix = sorted(rng.sample(range(low), rng.randint(0, min(low, 3))))
            if case == "prefix-at-the-cap":
                # the first p_hat_max columns through some node, and the window just past them
                through = [w for w in range(W - 1) if eta[w, 0]][:p_hat]
                if len(through) < p_hat:
                    continue
                prefix, low = through, through[-1] + 1
            high = {"window-to-the-end": W, "window-of-one": low + 1}.get(case, rng.randint(low + 1, W))
            cap = rng.randint(1, 3)  # k* - |prefix|
            taken = eta[prefix].sum(axis=0)
            rows = cover._CoverProgram(eta, p_max, p_hat, lexicographic=True).probe_rows(low, high, cap, taken)

            window = (np.arange(low, W) < high).astype(float)
            dense = np.vstack([eta[low:].T, np.ones(W - low), window])
            lb = np.concatenate([p_max - taken, [-np.inf, 1]])
            ub = np.concatenate([p_hat - taken, [cap, np.inf]])
            assert rows.A.format == "csc" and rows.A.has_sorted_indices
            assert np.array_equal(rows.A.toarray(), dense)
            assert np.array_equal(rows.lb, lb) and np.array_equal(rows.ub, ub)
            if case == "prefix-at-the-cap":
                assert rows.ub[0] == 0
            checked += 1

    def test_probes_span_only_the_free_columns(self, final_graph, monkeypatch):
        # Each probe hands HiGHS the columns low: with their tail of the cost, its window row
        # starting at the first of them; within one instance the width never grows.
        real_rows, real_milp = cover._CoverProgram.probe_rows, cover.milp
        probe, widths = [None], []

        def probe_rows(program, low, high, k, taken):
            probe[0] = (program.n_vars, low, high)
            return real_rows(program, low, high, k, taken)

        def milp(c, integrality, constraints, options=None, **kwargs):
            integral = bool(integrality.any())
            assert options == ({"mip_rel_gap": 0} if integral else None)
            if probe[0] is not None:
                W, low, high = probe[0]
                assert constraints.A.shape[1] == len(c) == W - low
                assert np.array_equal(c, W * W + np.arange(low, W, dtype=float))
                assert np.array_equal(constraints.A.toarray()[-1], np.arange(W - low) < high - low)
                widths.append(W - low)
            return real_milp(c, integrality=integrality, constraints=constraints, options=options, **kwargs)

        monkeypatch.setattr(cover._CoverProgram, "probe_rows", probe_rows)
        monkeypatch.setattr(cover, "milp", milp)
        pool = json.loads(LEX_POOL.read_text(encoding="utf-8"))["instances"]
        for inst in pool:
            probe[0], widths[:] = None, []
            result = synthesis.synthesize(final_graph, [pid(n) for n in inst["nodes"]], inst["n_min"], inst["p_max"], inst["p_hat_max"])
            assert result.solution.selected == tuple(inst["selected"])
            assert widths and widths == sorted(widths, reverse=True)
            assert widths[-1] < inst["columns"]


def _walks_in_order(rng):
    """3-7 nodes and 4-14 paths, each some nodes in one shuffled order; one draw in five adds a path against it."""
    nodes = tuple(pid(f"9.{i:02d}") for i in range(1, rng.randint(3, 7) + 1))
    order = rng.sample(nodes, len(nodes))
    paths = [tuple(sorted(rng.sample(nodes, rng.randint(1, len(nodes))), key=order.index)) for _ in range(rng.randint(4, 14))]
    if rng.random() < 0.2:
        a, b = sorted(rng.sample(nodes, 2), key=order.index)
        paths.append((b, a))
    return nodes, tuple(paths)


class TestAntichainFilter:
    def test_width_and_antichains_match_the_subset_search(self):
        rng = random.Random(15)
        for _ in range(120):
            nodes = [pid(f"9.{i:02d}") for i in range(1, rng.randint(1, 12) + 1)]
            order, density = rng.sample(nodes, len(nodes)), rng.random()
            arcs = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :] if rng.random() < density]
            # each arc as a two-node path: the paths walk exactly the DAG's order
            reach = cover._precedence(tuple(arcs), tuple(nodes))
            chains = cover._chain_partition(reach)
            largest = largest_antichain_by_subsets(nodes, arcs)
            assert len(chains) == len(largest[0])
            assert sorted(v for chain in chains for v in chain) == list(range(len(nodes)))
            assert all(reach[u] >> v & 1 for chain in chains for u, v in zip(chain, chain[1:]))
            # every antichain found is pairwise unreachable by the oracle's own walk; here the search finds them all
            found = [tuple(nodes[v] for v in cover._bits(a)) for a in cover._maximum_antichains(reach, chains)]
            assert sorted(found) == largest

    def test_cyclic_precedence_has_no_order(self):
        assert cover._precedence(((A, B), (B, A)), (A, B)) is None
        assert cover._precedence(((A, C), (C, B), (B, A)), (A, B)) is None  # the cycle runs through C
        assert cover._precedence(((A, C), (C, B)), (A, B)) == [0b10, 0b00]  # C relays A before B

    def test_filtered_solve_equals_the_column_oracle(self):
        # An instance is tight when its optimum k* is p_max·width, gap when k* is larger.
        # The filter settles exactly the tight ones it shrinks; every other instance runs unfiltered.
        rng = random.Random(36)
        kinds = dict.fromkeys(["tight", "gap", "infeasible", "cyclic"], 0)
        filtered = 0
        while min(kinds.values()) < 6:
            nodes, paths = _walks_in_order(rng)
            p_max = rng.randint(1, 3)
            p_hat = p_max + (rng.random() < 0.3)
            if min(sum(n in p for p in paths) for n in nodes) < p_max:
                continue
            arcs = {step for path in paths for step in zip(path, path[1:])}
            expected = lex_min_cover_by_columns(paths, nodes, p_max, p_hat)
            if has_cycle_dfs(nodes, arcs):
                kind = "cyclic"
            elif expected is None:
                kind = "infeasible"
            else:
                kind = "tight" if len(expected) == p_max * len(largest_antichain_by_subsets(nodes, arcs)[0]) else "gap"
            kinds[kind] += 1
            problem = CoverProblem(paths=paths, node_set=nodes, p_max=p_max, p_hat_max=p_hat)
            if expected is None:
                with pytest.raises(InfeasibleCoverError):
                    solve_cover(problem)
            else:
                assert solve_cover(problem).selected == expected
            if kind == "tight":  # every path of the oracle's minimum meets every maximum antichain found
                reach = cover._precedence(paths, nodes)
                for antichain in cover._maximum_antichains(reach, cover._chain_partition(reach)):
                    assert all(any(antichain >> nodes.index(n) & 1 for n in paths[w]) for w in expected)
            selection = cover._tight_lexicographic_minimum(problem, cover._visit_rows(paths, nodes))
            if selection is not None:
                assert kind == "tight" and tuple(selection) == expected
                filtered += 1
        assert filtered >= kinds["tight"] // 2  # 77 of 78 with scipy 1.17

    def test_gap_instance_with_a_feasible_filter_runs_unfiltered(self, final_graph):
        # Width 4 at p_max 1, but the optimum is 5. The filtered columns hold a 5-path selection
        # whose lexicographic minimum starts at 17; over every column it starts at 7.
        nodes = "1.05.01 3.01.01 3.02.01 3.02.03 3.03.02 3.03.06 3.03.08 3.03.10 3.04.02 3.04.04 3.04.06 3.04.10 5.01.01 5.01.03"
        sub = final_graph.restricted_to([pid(n) for n in nodes.split()])
        paths = enumerate_paths(sub, 4)
        problem = CoverProblem(paths=paths, node_set=sub.nodes, p_max=1, p_hat_max=2)
        assert len(cover._chain_partition(cover._precedence(paths, sub.nodes))) == 4
        assert solve_cover(problem).selected == lex_min_cover_by_columns(paths, sub.nodes, 1, 2) == (7, 64, 101, 127, 130)
        assert cover._tight_lexicographic_minimum(problem, cover._visit_rows(paths, sub.nodes)) is None


@pytest.fixture
def milp_calls(monkeypatch):
    """Every ``cover.milp`` call inside, as (integral, result): a MIP, or an LP without integer variables."""
    calls = []
    real = cover.milp

    def spy(c, integrality, **kwargs):
        res = real(c, integrality=integrality, **kwargs)
        calls.append((bool(integrality.any()), res))
        return res

    monkeypatch.setattr(cover, "milp", spy)
    return calls


def _optimum(problem):
    try:
        return solve_cover(problem).objective
    except InfeasibleCoverError:
        return None


def _seeded_instances(graph, node_pool, seed, count, nodes, columns, top_p_max, top_slack):
    """``count`` seeded draws of (subgraph, p_max, p_hat_max, enumerated optimum) with 4-node paths."""
    rng = random.Random(seed)
    drawn = 0
    while drawn < count:
        sub = graph.restricted_to(sorted(rng.sample(node_pool, rng.randint(*nodes))))
        paths = enumerate_paths(sub, 4)
        if not columns[0] <= len(paths) <= columns[1]:
            continue
        p_max = rng.randint(1, top_p_max)
        p_hat = p_max + rng.randint(0, top_slack)
        yield sub, p_max, p_hat, _optimum(CoverProblem(paths=paths, node_set=sub.nodes, p_max=p_max, p_hat_max=p_hat))
        drawn += 1


def _priced_optimum(sub, p_max, p_hat):
    priced = solve_priced_cover(PathPricer(sub, 4), sub.nodes, p_max, p_hat)
    if priced is None:
        return None
    problem, solution = priced
    assert verify_cover(problem, solution.selected) == solution.visit_counts
    assert list(problem.paths) == sorted(problem.paths) and not solution.lexicographic
    return solution.objective


@pytest.fixture
def rigged_pool(monkeypatch):
    """``with rigged_pool(mode) as columns:`` the first cover ``select`` inside misreports its selection.

    Mode "none" reports no selection; mode "over" adds the lowest unselected
    column, one path more than the optimum. ``columns`` collects the column
    count of every cover ``select`` inside.
    """
    real = cover._CoverProgram.select
    rig, columns = [None], []

    def select(program, *args):
        columns.append(program.n_vars)
        found = real(program, *args)
        if len(columns) > 1 or found is None or rig[0] is None:
            return found
        if rig[0] == "none":
            return None
        spare = min(set(range(program.n_vars)) - set(found.tolist()))
        return np.sort(np.append(found, spare))

    @contextlib.contextmanager
    def rigged(mode):
        rig[0], columns[:] = mode, []
        try:
            yield columns
        finally:
            rig[0] = None

    monkeypatch.setattr(cover._CoverProgram, "select", select)
    return rigged


class TestPricedCover:
    def test_matches_enumerated_optimum_on_default_graph_subsets(self, final_graph, sitting_set):
        for sub, p_max, p_hat, expected in _seeded_instances(final_graph, sitting_set, 11, 40, (8, 22), (20, 1500), 4, 2):
            assert _priced_optimum(sub, p_max, p_hat) == expected

    def test_one_path_per_round_never_returns_a_wrong_optimum(self, final_graph, sitting_set, monkeypatch):
        # Pricing one path per round leaves pooled paths at their upper bound ranked above
        # every new one, and small pools whose MIP may find no selection: those instances
        # are left to enumeration (None), every other one is solved to the optimum.
        monkeypatch.setattr(cover, "_BATCH", 1)
        outcomes = [
            (_priced_optimum(sub, p_max, p_hat), expected)
            for sub, p_max, p_hat, expected in _seeded_instances(final_graph, sitting_set, 13, 20, (10, 22), (100, 1500), 2, 2)
        ]
        assert all(priced in (expected, None) for priced, expected in outcomes)
        # of the ten feasible draws, one (274 paths at 1/1) has a pool MIP without a selection
        assert sum(expected is not None for _, expected in outcomes) == 10
        assert sum(priced is not None for priced, _ in outcomes) == 9
        assert _priced_optimum(final_graph.restricted_to(sitting_set), 2, 2) == 8

    def test_pool_above_the_ceiling_is_left_to_enumeration(self, final_graph, sitting_set, rigged_pool, monkeypatch):
        full = final_graph.restricted_to(sitting_set)
        with rigged_pool("over") as columns:
            assert solve_priced_cover(PathPricer(full, 4), full.nodes, 2, 2) is None
        assert len(columns) == 1
        with rigged_pool("over") as columns:
            assert synthesis.synthesize(final_graph, sitting_set, p_max=2, p_hat_max=2).solution.objective == 8
        assert columns == [columns[0], 9774]  # the pool MIP, then solve_cover over every path
        # price every subset, so that the rigged first MIP is always the pool's
        monkeypatch.setattr(synthesis, "DEFAULT_LEX_LIMIT", 0)
        for sub, p_max, p_hat, expected in _seeded_instances(final_graph, sitting_set, 14, 20, (10, 18), (20, 600), 2, 2):
            with rigged_pool("over"):
                if expected is None:
                    with pytest.raises(InfeasibleCoverError):
                        synthesis.synthesize(sub, sub.nodes, 4, p_max, p_hat)
                else:
                    assert synthesis.synthesize(sub, sub.nodes, 4, p_max, p_hat).solution.objective == expected

    def test_pool_without_selection_is_left_to_enumeration(self, final_graph, sitting_set, rigged_pool):
        full = final_graph.restricted_to(sitting_set)
        with rigged_pool("none") as columns:
            assert solve_priced_cover(PathPricer(full, 4), full.nodes, 2, 2) is None
        assert len(columns) == 1
        with rigged_pool("none") as columns:
            assert synthesis.synthesize(final_graph, sitting_set, p_max=2, p_hat_max=2).solution.objective == 8
        assert columns == [columns[0], 9774]  # the pool MIP, then solve_cover over every path

    def test_no_selection_costs_one_mip(self, monkeypatch):
        # The complete DAG on four nodes has four 3-node paths and one 4-node path. Two
        # visits each need 8 = 3a + 4b visits, so b = 2 copies of one path: no selection,
        # though the LP covers every node at 7/3.
        rel = RelationKind.CONDITION_FOR
        nodes = (A, B, C, D)
        graph = ConjugationGraph(nodes=nodes, edges=tuple(Edge(a, b, rel) for a in nodes for b in nodes if a < b))
        assert cover_lp_bound(enumerate_paths(graph, 3), nodes, 2, 2) == pytest.approx(7 / 3)
        calls = []
        real = cover.milp
        monkeypatch.setattr(cover, "milp", lambda *a, **k: calls.append(1) or real(*a, **k))
        assert solve_priced_cover(PathPricer(graph, 3), nodes, 2, 2) is None
        assert len(calls) == 1
        with pytest.raises(InfeasibleCoverError):
            solve_cover(CoverProblem(paths=enumerate_paths(graph, 3), node_set=nodes, p_max=2, p_hat_max=2))

    def test_source_without_paths_returns_none_and_solves_nothing(self, monkeypatch):
        # no 4-node path in a 3-node chain: the first round pools nothing, so no LP or MIP runs
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran over an empty pool")

        monkeypatch.setattr(cover, "linprog", refuse)
        monkeypatch.setattr(cover, "milp", refuse)
        assert solve_priced_cover(PathPricer(chain_graph(A, B, C), 4), (A, B, C), 1, 1) is None

    def test_default_plan_runs_six_lps_and_one_mip(self, final_graph, sitting_set, monkeypatch):
        calls = []
        for name in ("linprog", "milp"):
            real = getattr(cover, name)
            monkeypatch.setattr(cover, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
        assert synthesis.synthesize(final_graph, sitting_set).solution.objective == 24
        assert (calls.count("linprog"), calls.count("milp")) == (6, 1)
        assert calls[-1] == "milp"

    @pytest.mark.parametrize("p_max, expected", [(1, 4), (2, 8)])
    def test_tight_bounds_on_the_default_graph(self, final_graph, sitting_set, p_max, expected):
        # At p_max = p_hat_max = 1 the enumerated solve_cover takes ~30 s; the LP over all
        # 9,774 paths bounds every selection instead, and the priced one meets its ceiling.
        full = final_graph.restricted_to(sitting_set)
        paths = enumerate_paths(full, 4)
        assert math.ceil(cover_lp_bound(paths, full.nodes, p_max, p_max) - 1e-6) == expected
        assert _priced_optimum(full, p_max, p_max) == expected
        if p_max == 2:
            assert _optimum(CoverProblem(paths=paths, node_set=full.nodes, p_max=2, p_hat_max=2)) == expected

    @pytest.mark.parametrize("p_max, p_hat_max", [(p, q) for q in range(1, 8) for p in range(1, q + 1)])
    def test_default_plan_never_enumerates(self, final_graph, sitting_set, monkeypatch, p_max, p_hat_max):
        # the pool proves 4·p_max at every setting, so no setting pays for a 9,774-column MIP
        def refuse(*args, **kwargs):
            raise AssertionError("the default plan enumerated its paths")

        monkeypatch.setattr(synthesis, "enumerate_paths", refuse)
        result = synthesis.synthesize(final_graph, sitting_set, p_max=p_max, p_hat_max=p_hat_max)
        assert result.path_count == 9774 and len(result.path_set) < 9774
        assert result.solution.objective == len(result.sequences) == 4 * p_max
        problem = CoverProblem(result.path_set, tuple(sitting_set), p_max, p_hat_max)
        assert verify_cover(problem, result.solution.selected) == result.solution.visit_counts
        selected = [result.path_set[w] for w in result.solution.selected]
        assert selected == sorted(selected) == [s.capability_ids() for s in result.sequences]

    def test_lp_without_selection_falls_back_to_binding_nodes(self, built_graph, reference_correlations, candidates, sitting_set):
        # without the repair pair 3.01.03 sits on no path of 4 or more nodes
        pruned = network.prune_weak(built_graph, reference_correlations, 0.4)
        graph = network.augment_strong(pruned, candidates, repair=False)
        sub = graph.restricted_to(sitting_set)
        assert PathPricer(sub, 4).count > cover.DEFAULT_LEX_LIMIT
        assert solve_priced_cover(PathPricer(sub, 4), sub.nodes, 2, 3) is None
        with pytest.raises(InfeasibleCoverError) as err:
            synthesis.synthesize(graph, sitting_set, p_max=2, p_hat_max=3)
        assert err.value.binding_nodes == (pid("3.01.03"),)


class TestPipeline:
    def test_chain_with_single_visit_selects_one_sequence(self):
        from capnet.synthesis import synthesize

        graph = chain_graph(A, B, C, D)
        result = synthesize(graph, [A, B, C, D], n_min=4, p_max=1, p_hat_max=1)
        assert result.solution.objective == 1
        assert result.sequences[0].capability_ids() == (A, B, C, D)

    def test_requested_nodes_absent_from_the_graph_bind(self, final_graph, sitting_set):
        # the default plan without 3.01.03 would otherwise select 24 sequences that never visit it
        head_sideways = pid("3.01.03")
        graph = final_graph.restricted_to(n for n in final_graph.nodes if n != head_sideways)
        with pytest.raises(InfeasibleCoverError) as err:
            synthesis.synthesize(graph, sitting_set)
        assert err.value.binding_nodes == (head_sideways,)
        with pytest.raises(InfeasibleCoverError) as err:
            synthesis.synthesize(chain_graph(A, B, C, D), [E, A, B, C, D], n_min=4, p_max=1, p_hat_max=1)
        assert err.value.binding_nodes == (E,)

    def test_byte_identical_sequence_tables(self, final_graph, sitting_set):
        from capnet.synthesis import synthesize

        first = synthesize(final_graph, sitting_set, n_min=4, p_max=2, p_hat_max=3)
        second = synthesize(final_graph, sitting_set, n_min=4, p_max=2, p_hat_max=3)
        assert sequences_to_csv(first.sequences) == sequences_to_csv(second.sequences)
        assert sequences_to_text(first.sequences) == sequences_to_text(second.sequences)


class TestAnnotate:
    def _sequences(self, paths, p_hat=7):
        nodes = sorted({n for p in paths for n in p})
        rel = RelationKind.CONDITION_FOR
        edges = {}
        for path in paths:
            for a, b in zip(path, path[1:]):
                edges[(a, b)] = Edge(a, b, rel)
        graph = ConjugationGraph(nodes=tuple(nodes), edges=tuple(edges.values()))
        return annotate_requirements(paths, graph, p_hat)

    def test_six_encounters_get_full_scale(self):
        paths = [(A, B), (A, C), (A, D), (A, E), (A, B, C), (A, D, E)]
        sequences = self._sequences(paths)
        levels = [level for seq in sequences for cap, level in seq.steps if cap == A]
        assert levels == [1, 2, 3, 4, 5, 6]

    def test_levels_monotone_and_in_range(self):
        paths = [(A, B, C), (A, B, D), (B, C, D)]
        sequences = self._sequences(paths)
        per_cap = {}
        for seq in sequences:
            for cap, level in seq.steps:
                assert 1 <= level <= 6
                per_cap.setdefault(cap, []).append(level)
        for levels in per_cap.values():
            assert levels == sorted(levels)

    def test_lift_with_pinch_low_half(self):
        pinch, lift = pid("3.04.08"), pid("5.01.04")
        paths = [(pinch, lift), (pinch, lift, B)]
        sequences = self._sequences(paths)
        for seq in sequences:
            for cap, level in seq.steps:
                if cap == lift:
                    assert level <= 3

    def test_lift_with_fist_high_half(self):
        fist, lift = pid("3.04.02"), pid("5.01.03")
        sequences = self._sequences([(fist, lift), (fist, lift, B)])
        for seq in sequences:
            for cap, level in seq.steps:
                if cap == lift:
                    assert level >= 4

    def test_both_grips_count_as_pinch(self):
        pinch, fist, lift = pid("3.04.08"), pid("3.04.02"), pid("5.01.03")
        sequences = self._sequences([(fist, pinch, lift)])
        for cap, level in sequences[0].steps:
            if cap == lift:
                assert level <= 3

    def test_over_cap_occurrences_rejected(self):
        paths = [(A, B)] * 8
        with pytest.raises(AnnotationError):
            self._sequences(paths, p_hat=7)

    def test_non_edge_step_rejected(self):
        graph = chain_graph(A, B)
        with pytest.raises(AnnotationError):
            annotate_requirements([(B, A)], graph, 7)


class TestNaming:
    def _seq(self, *ids):
        return MovementSequence(0, tuple((pid(i), 1) for i in ids))

    def test_pull_out_from_behind(self):
        seq = self._seq("3.01.01", "3.03.08", "3.04.02", "5.01.04")
        assert name_sequence(seq) == "pull out, from behind"

    def test_reach_push_overhead(self):
        assert name_sequence(self._seq("3.03.02", "1.06.02")) == "reach & push, overhead"

    def test_empty_unnamed(self):
        assert name_sequence(MovementSequence(0, ())) == "unnamed"

    def test_pick_and_place(self):
        seq = self._seq("3.01.03", "3.02.01", "3.03.04", "3.04.02", "5.01.03")
        assert name_sequence(seq) == "pick & place, from side"

    def test_directional_fallbacks(self):
        assert name_sequence(self._seq("3.02.03", "3.03.06", "3.04.04")) == "reach & push, sideways"
        assert name_sequence(self._seq("3.02.03", "3.03.04", "3.04.04")) == "reach & push, frontal"


class TestLint:
    def _seq(self, seq_id, *ids):
        return MovementSequence(seq_id, tuple((pid(i), 1) for i in ids))

    def test_upward_lift_after_backward_reach_flagged(self):
        warnings = lint_sequences([self._seq(0, "3.01.01", "3.03.08", "3.04.02", "5.01.03")])
        assert len(warnings) == 1
        assert "5.01.03" in warnings[0]

    def test_horizontal_lift_mitigates(self):
        warnings = lint_sequences([self._seq(0, "3.03.08", "3.04.02", "5.01.01", "5.01.04")])
        assert warnings == []

    def test_empty(self):
        assert lint_sequences([]) == []


class TestRendering:
    def test_csv_shape(self):
        seq = MovementSequence(3, ((A, 1), (B, 6)), "demo name")
        text = sequences_to_csv([seq])
        lines = text.splitlines()
        assert lines[0] == "sequence_id,trivial_name,steps"
        assert lines[1] == '3,demo name,9.01:1 9.02:6'

    def test_text_shading(self):
        seq = MovementSequence(0, ((A, 1), (B, 6)), "demo")
        rendering = sequences_to_text([seq])
        assert ".9.01" in rendering and "@9.02" in rendering
