"""Directed conjugated-capability graph: build, prune, augment, export.

The interrelation table is a list of (row, column, relation) entries read
row-to-column. Orientation rules applied when building the graph:

* ``condition_for`` (c):  edge row -> column
* ``depends_on`` (d):     edge column -> row (converse of c)
* ``appears_with`` (a) and ``replaced_by`` (r): symmetric relations,
  oriented from the canonically smaller to the canonically larger id

Duplicate entries for the same capability pair are merged; condition or
dependency entries take precedence over appears_with, which takes
precedence over replaced_by. Symmetric edges that would close a cycle
against the already oriented edges are dropped and reported, keeping the
graph acyclic by construction.

A ConjugationGraph stores itself in canonical order (nodes sorted, edges
sorted by (source, target)), so every export and every traversal follows
that one order whatever order the graph was built in. Cycles are found by
the standard library's ``graphlib``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    CatalogError,
    ConfigError,
    GraphConstructionError,
    MissingCorrelationError,
)
from .taxonomy import (
    CapabilityCatalog,
    CapabilityId,
    Category,
    parse_capability_id,
    read_table,
)

__all__ = [
    "RelationKind",
    "Relation",
    "InterrelationEntry",
    "Edge",
    "ConjugationGraph",
    "CandidateVerdict",
    "StrongCandidate",
    "EdgeCorrelations",
    "build_graph",
    "prune_weak",
    "augment_strong",
    "export_graph",
    "import_graph",
    "load_default_interrelations",
    "load_default_candidates",
    "load_default_correlations",
]


class RelationKind(str, Enum):
    DEPENDS_ON = "d"
    CONDITION_FOR = "c"
    APPEARS_WITH = "a"
    REPLACED_BY = "r"


@dataclass(frozen=True)
class Relation:
    kind: RelationKind
    manufacturing: bool = False

    def __post_init__(self):
        if not isinstance(self.manufacturing, bool):
            raise GraphConstructionError(f"manufacturing flag {self.manufacturing!r} is not a bool")


@dataclass(frozen=True)
class InterrelationEntry:
    row: CapabilityId
    col: CapabilityId
    relation: Relation

    def __post_init__(self):
        if self.row == self.col:
            raise GraphConstructionError(f"self interrelation on {self.row}")


@dataclass(frozen=True)
class Edge:
    source: CapabilityId
    target: CapabilityId
    relation: Relation
    correlation: float | None = None

    def __post_init__(self):
        r = self.correlation
        if r is not None and (
            isinstance(r, bool) or not isinstance(r, (int, float)) or not (math.isfinite(r) and abs(r) <= 1.0)
        ):
            raise GraphConstructionError(f"edge {self.source}->{self.target} correlation {r!r} is not a number in [-1, 1]")

    def pair(self) -> frozenset[CapabilityId]:
        return frozenset((self.source, self.target))


@dataclass(frozen=True)
class ConjugationGraph:
    """Immutable directed acyclic graph of conjugated capabilities.

    Nodes carry the catalog category tag so downstream stages can filter
    out upstream-tested capabilities. Nodes are stored sorted and edges
    sorted by (source, target), whatever order they are given in. Equality
    covers nodes and edges but not build metadata (dropped_edges).
    """

    nodes: tuple[CapabilityId, ...]
    edges: tuple[Edge, ...]
    categories: tuple[tuple[CapabilityId, str], ...] = ()
    dropped_edges: tuple[Edge, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: (e.source, e.target))))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise GraphConstructionError("duplicate nodes")
        seen_pairs: set[tuple[CapabilityId, CapabilityId]] = set()
        for edge in self.edges:
            if edge.source not in node_set or edge.target not in node_set:
                raise GraphConstructionError(f"edge {edge.source}->{edge.target} uses unknown node")
            key = (edge.source, edge.target)
            rev = (edge.target, edge.source)
            if key in seen_pairs or rev in seen_pairs:
                raise GraphConstructionError(f"parallel edge on pair {edge.source}, {edge.target}")
            seen_pairs.add(key)
        cycle = find_cycle(self.nodes, [(e.source, e.target) for e in self.edges])
        if cycle is not None:
            pretty = " -> ".join(str(n) for n in cycle)
            raise GraphConstructionError(f"graph contains a cycle: {pretty}")

    # -- queries ---------------------------------------------------------

    @cached_property
    def _arcs(self) -> frozenset[tuple[CapabilityId, CapabilityId]]:
        """Every (source, target) edge orientation."""
        return frozenset((e.source, e.target) for e in self.edges)

    @cached_property
    def adjacency(self) -> Mapping[CapabilityId, tuple[CapabilityId, ...]]:
        """Node -> sorted neighbours joined by an edge in either direction."""
        joined: dict[CapabilityId, set[CapabilityId]] = {node: set() for node in self.nodes}
        for source, target in self._arcs:
            joined[source].add(target)
            joined[target].add(source)
        return MappingProxyType({node: tuple(sorted(near)) for node, near in joined.items()})

    def successors(self, node: CapabilityId) -> list[CapabilityId]:
        return [n for n in self.adjacency.get(node, ()) if (node, n) in self._arcs]

    def has_edge(self, a: CapabilityId, b: CapabilityId) -> bool:
        return (a, b) in self._arcs

    def edge_pairs(self) -> set[frozenset[CapabilityId]]:
        return {e.pair() for e in self.edges}

    def category_of(self, node: CapabilityId) -> str | None:
        return dict(self.categories).get(node)

    def restricted_to(self, keep: Iterable[CapabilityId]) -> "ConjugationGraph":
        """Induced subgraph on the given nodes."""
        keep_set = set(keep)
        nodes = tuple(n for n in self.nodes if n in keep_set)
        edges = tuple(e for e in self.edges if e.source in keep_set and e.target in keep_set)
        cats = tuple((n, c) for n, c in self.categories if n in keep_set)
        return ConjugationGraph(nodes=nodes, edges=edges, categories=cats)


def find_cycle(nodes, arcs) -> list | None:
    """One cycle in edge direction, first node repeated last, or None."""
    sources: dict = {node: [] for node in nodes}
    for source, target in arcs:
        sources[target].append(source)
    try:
        TopologicalSorter(sources).prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


_RELATION_PRECEDENCE = {
    RelationKind.CONDITION_FOR: 0,
    RelationKind.DEPENDS_ON: 0,
    RelationKind.APPEARS_WITH: 1,
    RelationKind.REPLACED_BY: 2,
}


def build_graph(
    table: Iterable[InterrelationEntry],
    catalog: CapabilityCatalog | None = None,
) -> ConjugationGraph:
    """Orient interrelation table entries into an acyclic conjugation graph.

    Raises CatalogError when an entry names an id the catalog (if given)
    lacks, and GraphConstructionError when the condition/dependency entries
    are contradictory or cyclic. Symmetric edges dropped to preserve
    acyclicity are reported on the result's ``dropped_edges``.
    """
    table = tuple(table)
    if catalog is not None:
        for entry in table:
            for cap_id in (entry.row, entry.col):
                if cap_id not in catalog:
                    raise CatalogError(f"interrelation references unknown id {cap_id}")

    # Merge the two reading directions of each unordered pair.
    by_pair: dict[frozenset[CapabilityId], list[InterrelationEntry]] = {}
    for entry in table:
        by_pair.setdefault(frozenset((entry.row, entry.col)), []).append(entry)

    nodes = sorted({cap for entry in table for cap in (entry.row, entry.col)})
    directed: dict[tuple[CapabilityId, CapabilityId], Relation] = {}
    symmetric: dict[tuple[CapabilityId, CapabilityId], Relation] = {}

    for pair, entries in sorted(by_pair.items(), key=lambda kv: sorted(kv[0])):
        best = min(_RELATION_PRECEDENCE[e.relation.kind] for e in entries)
        chosen = [e for e in entries if _RELATION_PRECEDENCE[e.relation.kind] == best]
        manufacturing = any(e.relation.manufacturing for e in entries)
        if best == 0:
            # condition/dependency: orient from the condition to the dependent
            orientations = set()
            for e in chosen:
                if e.relation.kind is RelationKind.CONDITION_FOR:
                    orientations.add((e.row, e.col))
                else:
                    orientations.add((e.col, e.row))
            if len(orientations) != 1:
                a, b = sorted(pair)
                raise GraphConstructionError(
                    f"contradictory condition/dependency orientation on pair {a}, {b}"
                )
            (source, target) = orientations.pop()
            directed[(source, target)] = Relation(RelationKind.CONDITION_FOR, manufacturing)
        else:
            kind = chosen[0].relation.kind
            small, large = sorted(pair)
            symmetric[(small, large)] = Relation(kind, manufacturing)

    skeleton_cycle = find_cycle(nodes, list(directed))
    if skeleton_cycle is not None:
        pretty = " -> ".join(str(n) for n in skeleton_cycle)
        raise GraphConstructionError(f"condition/dependency entries form a cycle: {pretty}")

    # The accepted arcs stay acyclic, so a cycle can only run through the new arc.
    accepted = dict(directed)
    dropped: list[Edge] = []
    for arc, rel in sorted(symmetric.items()):
        if find_cycle(nodes, [*accepted, arc]) is None:
            accepted[arc] = rel
        else:
            dropped.append(Edge(*arc, rel))

    categories = ()
    if catalog is not None:
        categories = tuple((n, catalog[n].category.value) for n in nodes)
    return ConjugationGraph(
        nodes=tuple(nodes),
        edges=tuple(Edge(s, t, rel) for (s, t), rel in accepted.items()),
        categories=categories,
        dropped_edges=tuple(dropped),
    )


class EdgeCorrelations:
    """Sparse pairwise correlation lookup (order-insensitive)."""

    def __init__(self, values: Iterable[tuple[CapabilityId, CapabilityId, float]]):
        self._values: dict[frozenset[CapabilityId], float] = {
            frozenset((a, b)): float(r) for a, b, r in values
        }

    def pair(self, a: CapabilityId, b: CapabilityId) -> float | None:
        return self._values.get(frozenset((a, b)))


def prune_weak(graph: ConjugationGraph, corr, threshold: float) -> ConjugationGraph:
    """Drop edges whose |r| is below the threshold; annotate survivors with r.

    ``corr`` is anything exposing ``pair(a, b) -> float | None`` (an
    EdgeCorrelations fixture or a computed CorrelationMatrix). A missing
    value for an edge endpoint pair is an error.
    """
    if not threshold >= 0:
        raise ConfigError(f"threshold must be non-negative, got {threshold}")
    kept: list[Edge] = []
    for edge in graph.edges:
        r = corr.pair(edge.source, edge.target)
        if r is None:
            raise MissingCorrelationError(
                f"no correlation for edge pair {edge.source}, {edge.target}"
            )
        if abs(r) < threshold:
            continue
        kept.append(Edge(edge.source, edge.target, edge.relation, float(r)))
    return replace(graph, edges=tuple(kept))


class CandidateVerdict(str, Enum):
    NOT_IN_TABLE = "not_in_table"
    IMPOSSIBLE = "impossible"
    PRETEST = "pretest"
    SIMULTANEOUS_ROTATION = "simultaneous_rotation"
    REACH_COMBINATION = "reach_combination"
    PRESSURE_MOVEMENT = "pressure_movement"


@dataclass(frozen=True)
class StrongCandidate:
    c1: CapabilityId
    c2: CapabilityId
    r: float
    verdict: CandidateVerdict


def augment_strong(
    graph: ConjugationGraph,
    candidates: Iterable[StrongCandidate],
    repair: bool = True,
) -> ConjugationGraph:
    """Add eligible strongly correlated pairs as canonical-order edges.

    Pairs absent from the interrelation table and not excluded by a
    feasibility class are added when strongly correlated (|r| >= 0.8).
    The moderate reachability-repair pair is added only when requested.
    Raises GraphConstructionError if an added edge names a node outside
    the graph or would create a cycle; the unknown node is reported first.
    """
    edges = list(graph.edges)
    existing = graph.edge_pairs()
    for cand in candidates:
        if cand.verdict is not CandidateVerdict.NOT_IN_TABLE or (abs(cand.r) < 0.8 and not repair):
            continue
        pair = frozenset((cand.c1, cand.c2))
        if pair in existing:
            continue
        source, target = sorted((cand.c1, cand.c2))
        edges.append(Edge(source, target, Relation(RelationKind.APPEARS_WITH), cand.r))
        existing.add(pair)
    return replace(graph, edges=tuple(edges))


# -- serialization --------------------------------------------------------


def export_graph(graph: ConjugationGraph, fmt: str = "structured", catalog: CapabilityCatalog | None = None) -> str:
    """Render the graph; ``structured`` (JSON, lossless) or ``dot``."""
    if fmt == "structured":
        doc = {
            "nodes": [
                {"id": str(n), "category": graph.category_of(n)}
                for n in graph.nodes
            ],
            "edges": [
                {
                    "from": str(e.source),
                    "to": str(e.target),
                    "relation": e.relation.kind.value,
                    "manufacturing": e.relation.manufacturing,
                    "correlation": e.correlation,
                }
                for e in graph.edges
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        lines = ["digraph conjugated_capabilities {", "  rankdir=LR;"]
        for node in graph.nodes:
            label = str(node)
            if catalog is not None and node in catalog:
                label = f"{node} {catalog.name_of(node)}"
            lines.append(f'  "{node}" [label="{label}"];')
        for edge in graph.edges:
            attrs = [f'label="{edge.relation.kind.value}{"(M)" if edge.relation.manufacturing else ""}"']
            if edge.correlation is not None:
                attrs.append(f'tooltip="r={edge.correlation:g}"')
            lines.append(f'  "{edge.source}" -> "{edge.target}" [{", ".join(attrs)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def import_graph(text: str) -> ConjugationGraph:
    """Rebuild a graph from its structured export.

    Text that is not such a document raises GraphConstructionError.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise GraphConstructionError(f"graph document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphConstructionError("graph document must be a JSON object")
    try:
        nodes, categories = [], []
        for n in doc["nodes"]:
            node = parse_capability_id(n["id"])
            nodes.append(node)
            if n.get("category") is not None:
                categories.append((node, Category(n["category"]).value))
        edges = [
            Edge(
                parse_capability_id(e["from"]),
                parse_capability_id(e["to"]),
                Relation(RelationKind(e["relation"]), e["manufacturing"]),
                e["correlation"],
            )
            for e in doc["edges"]
        ]
    except KeyError as exc:
        raise GraphConstructionError(f"graph document lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise GraphConstructionError(f"malformed graph document: {exc}") from None
    return ConjugationGraph(nodes=tuple(nodes), edges=tuple(edges), categories=tuple(categories))


# -- fixture loading -------------------------------------------------------


def read_interrelations(lines: Iterable[str]) -> tuple[InterrelationEntry, ...]:
    columns = ("row_id", "col_id", "relation", "manufacturing")
    entries = []
    for line, row in read_table(lines, columns, "interrelation", GraphConstructionError):
        try:
            kind = RelationKind(row["relation"].strip())
        except ValueError:
            raise GraphConstructionError(f"line {line}: unknown relation {row['relation']!r}") from None
        flag = row["manufacturing"].strip()
        if flag not in ("0", "1"):
            raise GraphConstructionError(f"line {line}: manufacturing flag {row['manufacturing']!r} is not 0 or 1")
        entries.append(
            InterrelationEntry(
                row=parse_capability_id(row["row_id"]),
                col=parse_capability_id(row["col_id"]),
                relation=Relation(kind, flag == "1"),
            )
        )
    return tuple(entries)


def _parse_r(text, line: int) -> float:
    try:
        r = float(text)
    except ValueError:
        raise GraphConstructionError(f"line {line}: correlation {text!r} is not a number") from None
    if not math.isfinite(r):
        raise GraphConstructionError(f"line {line}: correlation {text!r} is not finite")
    return r


def read_candidates(lines: Iterable[str]) -> tuple[StrongCandidate, ...]:
    entries = []
    for line, row in read_table(lines, ("c1", "c2", "r", "verdict"), "candidate", GraphConstructionError):
        try:
            verdict = CandidateVerdict(row["verdict"].strip())
        except ValueError:
            raise GraphConstructionError(f"line {line}: unknown candidate verdict {row['verdict']!r}") from None
        entries.append(
            StrongCandidate(
                c1=parse_capability_id(row["c1"]),
                c2=parse_capability_id(row["c2"]),
                r=_parse_r(row["r"], line),
                verdict=verdict,
            )
        )
    return tuple(entries)


def read_correlations(lines: Iterable[str]) -> EdgeCorrelations:
    """Long-form ``id1,id2,r`` rows; a pair given twice, in either order, is an error."""
    values = {}
    for line, row in read_table(lines, ("id1", "id2", "r"), "correlation", GraphConstructionError):
        a, b = parse_capability_id(row["id1"]), parse_capability_id(row["id2"])
        pair = frozenset((a, b))
        if pair in values:
            raise GraphConstructionError(f"line {line}: correlation pair {a}, {b} repeats")
        values[pair] = (a, b, _parse_r(row["r"], line))
    return EdgeCorrelations(values.values())


def _fixture_text(name: str) -> str:
    return resources.files("capnet.fixtures").joinpath(name).read_text("utf-8")


def load_interrelations(path) -> tuple[InterrelationEntry, ...]:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_interrelations(handle)


def load_candidates(path) -> tuple[StrongCandidate, ...]:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_candidates(handle)


def load_correlations(path) -> EdgeCorrelations:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_correlations(handle)


def load_default_interrelations() -> tuple[InterrelationEntry, ...]:
    return read_interrelations(_fixture_text("interrelations.csv").splitlines())


def load_default_candidates() -> tuple[StrongCandidate, ...]:
    return read_candidates(_fixture_text("strong_candidates.csv").splitlines())


def load_default_correlations() -> EdgeCorrelations:
    return read_correlations(_fixture_text("reference_correlations.csv").splitlines())
