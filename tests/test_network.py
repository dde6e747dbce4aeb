import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capnet.errors import GraphConstructionError, MissingCorrelationError
from capnet.network import (
    CandidateVerdict,
    ConjugationGraph,
    Edge,
    RelationKind,
    StrongCandidate,
    augment_strong,
    build_graph,
    export_graph,
    find_cycle,
    import_graph,
    prune_weak,
    read_candidates,
    read_correlations,
    read_interrelations,
)
from capnet.taxonomy import parse_capability_id as pid

from oracles import has_cycle_dfs


def entry(row, col, letter, m=False):
    return Edge(pid(row), pid(col), RelationKind(letter), m)


class TestBuildGraph:
    def test_condition_orientation(self):
        graph = build_graph([entry("1.01", "1.05.01", "c")])
        assert graph.has_edge(pid("1.01"), pid("1.05.01"))

    def test_depends_orientation_deduplicates(self):
        table = [entry("1.01", "1.05.01", "c"), entry("1.05.01", "1.01", "d")]
        graph = build_graph(table)
        assert len(graph.edges) == 1
        assert graph.has_edge(pid("1.01"), pid("1.05.01"))

    def test_contradictory_condition_pair_rejected(self):
        table = [entry("1.01", "1.05.01", "c"), entry("1.05.01", "1.01", "c")]
        with pytest.raises(GraphConstructionError, match="contradictory"):
            build_graph(table)

    def test_symmetric_canonical_orientation(self):
        graph = build_graph([entry("3.03.10", "1.06.01", "a")])
        assert graph.has_edge(pid("1.06.01"), pid("3.03.10"))

    def test_condition_precedence_over_appears(self):
        table = [entry("2.01", "1.01", "a"), entry("1.01", "2.01", "c")]
        graph = build_graph(table)
        assert graph.has_edge(pid("1.01"), pid("2.01"))
        assert graph.edges[0].kind is RelationKind.CONDITION_FOR

    def test_appears_precedence_over_replaced(self):
        table = [entry("2.01", "1.01", "r"), entry("1.01", "2.01", "a")]
        graph = build_graph(table)
        assert graph.edges[0].kind is RelationKind.APPEARS_WITH

    def test_condition_cycle_is_irreducible(self):
        table = [
            entry("2.01", "1.01", "d"),  # edge 1.01 -> 2.01
            entry("2.01", "3.01", "c"),  # edge 2.01 -> 3.01
            entry("3.01", "1.01", "c"),  # edge 3.01 -> 1.01
        ]
        with pytest.raises(GraphConstructionError, match="cycle"):
            build_graph(table)

    def test_cycle_closing_symmetric_edge_dropped(self):
        table = [
            entry("4.01", "9.01", "c"),  # 4.01 -> 9.01
            entry("9.01", "2.02", "c"),  # 9.01 -> 2.02
            entry("2.02", "4.01", "a"),  # canonical 2.02 -> 4.01 closes a cycle
            entry("2.02", "9.02", "a"),  # canonical 2.02 -> 9.02 is fine
        ]
        graph = build_graph(table)
        dropped = [(str(e.source), str(e.target)) for e in graph.dropped_edges]
        assert dropped == [("2.02", "4.01")]
        assert graph.has_edge(pid("2.02"), pid("9.02"))
        assert pid("4.01") not in graph.adjacency[pid("2.02")]

    def test_fixture_build(self, built_graph, sitting_set):
        assert len(built_graph.nodes) == 30
        assert [n for n in built_graph.nodes if built_graph.category_of(n) == "over_table"] == sitting_set
        assert not built_graph.dropped_edges

    def test_fixture_acyclic_by_independent_oracle(self, built_graph):
        arcs = [(e.source, e.target) for e in built_graph.edges]
        assert not has_cycle_dfs(built_graph.nodes, arcs)

    def test_self_entry_rejected(self):
        with pytest.raises(GraphConstructionError):
            entry("1.01", "1.01", "a")

    def test_unknown_relation_letter_names_line(self):
        lines = ["row_id,col_id,relation,manufacturing", "1.01,1.05.01,c,0", "1.01,2.01,z,0"]
        with pytest.raises(GraphConstructionError, match="line 3"):
            read_interrelations(lines)

    @pytest.mark.parametrize("flag", ["yes", "2", ""])
    def test_manufacturing_flag_other_than_0_or_1_names_line(self, flag):
        lines = ["row_id,col_id,relation,manufacturing", "1.01,1.05.01,c,1", f"1.01,2.01,a,{flag}"]
        with pytest.raises(GraphConstructionError, match="line 3"):
            read_interrelations(lines)

    def test_repeated_cell_names_both_lines(self):
        lines = ["row_id,col_id,relation,manufacturing", "1.01,1.05.01,c,0", "1.05.01,1.01,d,0", "1.01,1.05.01,a,0"]
        with pytest.raises(GraphConstructionError, match=r"line 4: duplicate interrelation cell 1.01, 1.05.01 \(first on line 2\)"):
            read_interrelations(lines)
        assert len(read_interrelations(lines[:3])) == 2  # the pair read column -> row is another cell

    @pytest.mark.parametrize(
        "read, header, r",
        [
            (read_correlations, "id1,id2,r", "-1.2"),
            (read_candidates, "c1,c2,r,verdict", "-3.0"),
        ],
    )
    def test_correlation_beyond_one_names_line(self, read, header, r):
        row = f"1.05.01,1.05.02,{r}" + (",impossible" if read is read_candidates else "")
        with pytest.raises(GraphConstructionError, match=rf"line 2: correlation '{r}' is not in \[-1, 1\]"):
            read([header, row])
        assert len(read([header, row.replace(r, "-1.0")])) == 1


class TestPruneWeak:
    WEAK = [
        ("3.04.02", "5.01.04"),
        ("3.04.08", "5.01.03"),
        ("3.04.08", "5.01.04"),
        ("3.01.03", "5.01.03"),
    ]

    def test_repeated_pair_rejected_in_either_order(self):
        lines = ["id1,id2,r", "1.01,1.05.01,0.9", "1.05.01,1.01,0.1"]
        with pytest.raises(GraphConstructionError, match=r"line 3: duplicate correlation pair 1.05.01, 1.01 \(first on line 2\)"):
            read_correlations(lines)

    def test_reference_prune_removes_exactly_four(self, built_graph, reference_correlations):
        pruned = prune_weak(built_graph, reference_correlations, 0.4)
        removed = built_graph.edge_pairs() - pruned.edge_pairs()
        assert removed == {frozenset((pid(a), pid(b))) for a, b in self.WEAK}

    def test_zero_threshold_is_identity_on_pairs(self, built_graph, reference_correlations):
        pruned = prune_weak(built_graph, reference_correlations, 0.0)
        assert pruned.edge_pairs() == built_graph.edge_pairs()

    def test_above_one_removes_everything(self, built_graph, reference_correlations):
        pruned = prune_weak(built_graph, reference_correlations, 1.01)
        assert len(pruned.edges) == 0

    def test_missing_endpoint_errors(self):
        graph = build_graph([entry("1.01", "1.05.01", "c")])
        with pytest.raises(MissingCorrelationError):
            prune_weak(graph, {}, 0.4)

    def test_survivors_annotated(self, built_graph, reference_correlations):
        pruned = prune_weak(built_graph, reference_correlations, 0.4)
        assert all(e.correlation is not None and abs(e.correlation) <= 1 for e in pruned.edges)


class TestAugmentStrong:
    def test_reference_augment_with_repair(self, built_graph, reference_correlations, candidates):
        pruned = prune_weak(built_graph, reference_correlations, 0.4)
        final = augment_strong(pruned, candidates, repair=True)
        added = final.edge_pairs() - pruned.edge_pairs()
        assert added == {
            frozenset((pid("3.03.10"), pid("3.04.10"))),
            frozenset((pid("3.04.06"), pid("3.04.08"))),
            frozenset((pid("3.01.03"), pid("3.02.01"))),
        }
        assert final.has_edge(pid("3.01.03"), pid("3.02.01"))

    def test_without_repair_adds_two(self, built_graph, reference_correlations, candidates):
        pruned = prune_weak(built_graph, reference_correlations, 0.4)
        final = augment_strong(pruned, candidates, repair=False)
        assert len(final.edge_pairs() - pruned.edge_pairs()) == 2

    @pytest.mark.parametrize("repair", [True, False])
    def test_correlation_bands_decide_what_is_added(self, repair):
        g = build_graph([entry("1.01", "2.01", "c"), entry("2.01", "3.01", "c"), entry("3.01", "4.01", "c")])
        cands = [
            StrongCandidate(pid("1.01"), pid("3.01"), 0.85, CandidateVerdict.NOT_IN_TABLE),
            StrongCandidate(pid("1.01"), pid("4.01"), -0.5, CandidateVerdict.NOT_IN_TABLE),
            StrongCandidate(pid("2.01"), pid("4.01"), 0.05, CandidateVerdict.NOT_IN_TABLE),
        ]
        added = augment_strong(g, cands, repair=repair).edge_pairs() - g.edge_pairs()
        strong, moderate = frozenset((pid("1.01"), pid("3.01"))), frozenset((pid("1.01"), pid("4.01")))
        assert added == ({strong, moderate} if repair else {strong})

    def test_candidate_on_an_edge_pair_skipped(self):
        g = build_graph([entry("1.01", "2.01", "c"), entry("2.01", "3.01", "c")])
        cands = [
            StrongCandidate(pid("2.01"), pid("1.01"), 0.9, CandidateVerdict.NOT_IN_TABLE),  # the c edge's pair
            StrongCandidate(pid("1.01"), pid("3.01"), 0.9, CandidateVerdict.NOT_IN_TABLE),
            StrongCandidate(pid("3.01"), pid("1.01"), -0.9, CandidateVerdict.NOT_IN_TABLE),  # the pair just added
        ]
        final = augment_strong(g, cands)
        assert final.edges == (
            *g.edges[:1],
            Edge(pid("1.01"), pid("3.01"), RelationKind.APPEARS_WITH, correlation=0.9),
            *g.edges[1:],
        )

    def test_empty_candidates_is_identity(self, final_graph):
        again = augment_strong(final_graph, [], repair=True)
        assert again.edge_pairs() == final_graph.edge_pairs()

    def test_cycle_creating_candidate_errors(self):
        # path 2.01 -> 5.01 -> 1.01; candidate (1.01, 2.01) orients
        # canonically 1.01 -> 2.01 and would close the cycle
        table = [entry("2.01", "5.01", "c"), entry("5.01", "1.01", "c")]
        g = build_graph(table)
        cand = [StrongCandidate(pid("1.01"), pid("2.01"), 0.9, CandidateVerdict.NOT_IN_TABLE)]
        with pytest.raises(GraphConstructionError, match="cycle"):
            augment_strong(g, cand)

    def test_candidate_outside_graph_errors(self):
        g = build_graph([entry("2.01", "5.01", "c"), entry("5.01", "1.01", "c")])
        outside = StrongCandidate(pid("2.01"), pid("4.01"), 0.9, CandidateVerdict.NOT_IN_TABLE)
        with pytest.raises(GraphConstructionError, match="unknown node"):
            augment_strong(g, [outside])
        # With a cycle-closing candidate too, the unknown node is reported.
        closing = StrongCandidate(pid("1.01"), pid("2.01"), 0.9, CandidateVerdict.NOT_IN_TABLE)
        with pytest.raises(GraphConstructionError, match="unknown node"):
            augment_strong(g, [closing, outside])

    def test_bookkeeping_edge_counts(self, built_graph, reference_correlations, candidates):
        pruned = prune_weak(built_graph, reference_correlations, 0.4)
        final = augment_strong(pruned, candidates, repair=True)
        assert len(final.edges) == len(pruned.edges) + 3


class TestReachabilityInvariant:
    def test_repair_gives_head_sideways_a_long_path(self, final_graph):
        # at least one path of length >= 4 passes through 3.01.03
        target = pid("3.01.03")
        sub = final_graph.restricted_to(n for n in final_graph.nodes if final_graph.category_of(n) == "over_table")
        best = {}

        def longest_from(node):
            if node in best:
                return best[node]
            value = 1 + max((longest_from(s) for s in sub.successors(node)), default=0)
            best[node] = value
            return value

        def longest_to(node):
            seen = {}

            def up(n):
                if n in seen:
                    return seen[n]
                value = 1 + max((up(p) for p in sub.adjacency[n] if sub.has_edge(p, n)), default=0)
                seen[n] = value
                return value

            return up(node)

        assert longest_to(target) + longest_from(target) - 1 >= 4


class TestExport:
    def test_single_edge_dot(self):
        graph = build_graph([entry("1.01", "1.05.01", "c")])
        dot = export_graph(graph, "dot")
        assert dot.count("->") == 1
        assert dot.startswith("digraph")

    def test_structured_round_trip(self, final_graph):
        text = export_graph(final_graph, "structured")
        assert import_graph(text) == final_graph

    def test_empty_graph_documents(self):
        empty = ConjugationGraph(nodes=(), edges=())
        assert import_graph(export_graph(empty, "structured")) == empty
        assert export_graph(empty, "dot").startswith("digraph")

    def test_unknown_format_rejected(self, final_graph):
        with pytest.raises(ValueError, match="unknown export format 'svg'"):
            export_graph(final_graph, "svg")

    def test_dot_labels_include_names(self, final_graph, catalog):
        dot = export_graph(final_graph, "dot", catalog=catalog)
        assert '"3.03.04" [label="3.03.04 Reaching Forward - Unilateral"];' in dot

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("{bad", id="not-json"),
            pytest.param("[1, 2]", id="not-object"),
            pytest.param('{"edges": []}', id="no-nodes"),
            pytest.param('{"nodes": []}', id="no-edges"),
            pytest.param('{"nodes": [{"category": null}], "edges": []}', id="no-node-id"),
            pytest.param('{"nodes": ["1.01"], "edges": []}', id="node-not-object"),
            pytest.param('{"nodes": 3, "edges": []}', id="nodes-not-list"),
            pytest.param('{"nodes": [{"id": "1.01", "category": "kitchen"}], "edges": []}', id="unknown-category"),
        ],
    )
    def test_malformed_document_rejected(self, text):
        with pytest.raises(GraphConstructionError):
            import_graph(text)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("relation", "z"),
            ("from", "9.99"),
            ("correlation", "0.5"),
            ("correlation", float("nan")),
            ("correlation", float("inf")),
            ("correlation", float("-inf")),
            ("correlation", True),
            ("manufacturing", KeyError),
            ("manufacturing", "false"),
            ("manufacturing", 0),
        ],
    )
    def test_malformed_edge_rejected(self, final_graph, field, value):
        doc = json.loads(export_graph(final_graph, "structured"))
        if value is KeyError:
            del doc["edges"][0][field]
        else:
            doc["edges"][0][field] = value
        with pytest.raises(GraphConstructionError):
            import_graph(json.dumps(doc))


class TestCanonicalStorage:
    def test_shuffled_construction_equals_sorted(self, final_graph, catalog):
        rng = random.Random(11)
        nodes, edges = list(final_graph.nodes), list(final_graph.edges)
        rng.shuffle(nodes)
        rng.shuffle(edges)
        shuffled = ConjugationGraph(nodes=tuple(nodes), edges=tuple(edges), categories=final_graph.categories)
        assert shuffled == final_graph
        assert list(shuffled.nodes) == sorted(nodes)
        arcs = [(e.source, e.target) for e in shuffled.edges]
        assert arcs == sorted(arcs)
        for fmt in ("structured", "dot"):
            assert export_graph(shuffled, fmt, catalog=catalog) == export_graph(final_graph, fmt, catalog=catalog)


_digraphs = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(list(range(n))),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14, unique=True),
    )
)


_NODES = tuple(pid(f"1.{k:02d}") for k in range(1, 8))
# one entry per unordered pair of at most 7 nodes: (row, column, relation, manufacturing)
_tables = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from("cdar"), st.booleans()),
    max_size=21,
    unique_by=lambda row: frozenset(row[:2]),
).map(lambda rows: [row for row in rows if row[0] != row[1]])


def _reference_build(rows):
    """(arcs, dropped arcs), or None when the c/d arcs form a cycle.

    Each symmetric edge is accepted in canonical order unless the oracle
    finds a cycle through it and the arcs accepted so far.
    """
    nodes = sorted({_NODES[i] for i, j, _, _ in rows} | {_NODES[j] for i, j, _, _ in rows})
    arcs, symmetric = [], []
    for i, j, letter, _ in rows:
        a, b = _NODES[i], _NODES[j]
        if letter == "c":
            arcs.append((a, b))
        elif letter == "d":
            arcs.append((b, a))
        else:
            symmetric.append(tuple(sorted((a, b))))
    if has_cycle_dfs(nodes, arcs):
        return None
    dropped = []
    for arc in sorted(symmetric):
        (dropped if has_cycle_dfs(nodes, [*arcs, arc]) else arcs).append(arc)
    return sorted(arcs), dropped


class TestBuildGraphReachability:
    @given(_tables)
    def test_matches_cycle_checked_reference(self, rows):
        table = [Edge(_NODES[i], _NODES[j], RelationKind(letter), m) for i, j, letter, m in rows]
        expected = _reference_build(rows)
        if expected is None:
            with pytest.raises(GraphConstructionError, match="cycle"):
                build_graph(table)
            return
        graph = build_graph(table)
        assert [(e.source, e.target) for e in graph.edges] == expected[0]
        assert [(e.source, e.target) for e in graph.dropped_edges] == expected[1]


class TestFindCycle:
    @given(_digraphs)
    def test_returns_closed_cycle_and_agrees_with_oracle(self, graph):
        nodes, arcs = graph
        cycle = find_cycle(nodes, arcs)
        assert (cycle is not None) == has_cycle_dfs(nodes, arcs)
        if cycle is not None:
            assert len(cycle) >= 2 and cycle[0] == cycle[-1]
            assert set(zip(cycle, cycle[1:])) <= set(arcs)


class TestGraphType:
    def test_duplicate_edges_rejected(self):
        a, b = pid("1.01"), pid("1.05.01")
        with pytest.raises(GraphConstructionError, match="parallel"):
            ConjugationGraph(
                nodes=(a, b),
                edges=(
                    Edge(a, b, RelationKind.CONDITION_FOR),
                    Edge(b, a, RelationKind.APPEARS_WITH),
                ),
            )

    def test_repeated_node_rejected(self):
        a = pid("1.01")
        with pytest.raises(GraphConstructionError, match="duplicate nodes"):
            ConjugationGraph(nodes=(a, pid("1.05.01"), a), edges=())

    def test_cycle_rejected_at_construction(self):
        a, b, c = pid("1.01"), pid("1.05.01"), pid("1.05.02")
        rel = RelationKind.CONDITION_FOR
        with pytest.raises(GraphConstructionError, match="cycle"):
            ConjugationGraph(
                nodes=(a, b, c),
                edges=(Edge(a, b, rel), Edge(b, c, rel), Edge(c, a, rel)),
            )

    def test_correlation_bound_enforced(self):
        a, b = pid("1.01"), pid("1.05.01")
        with pytest.raises(GraphConstructionError):
            Edge(a, b, RelationKind.CONDITION_FOR, correlation=1.5)

    def test_adjacency_either_direction(self, final_graph):
        assert pid("3.03.04") in final_graph.adjacency[pid("3.02.03")]
        assert pid("3.02.03") in final_graph.adjacency[pid("3.03.04")]
        assert pid("5.01.04") not in final_graph.adjacency[pid("1.05.01")]

    def test_cached_adjacency_equals_edge_scan(self, final_graph):
        edges = final_graph.edges
        for node in final_graph.nodes:
            out = sorted(e.target for e in edges if e.source == node)
            into = sorted(e.source for e in edges if e.target == node)
            assert final_graph.successors(node) == out
            assert final_graph.adjacency[node] == tuple(sorted(out + into))
            for other in final_graph.nodes:
                scan = any(e.source == node and e.target == other for e in edges)
                assert final_graph.has_edge(node, other) == scan
