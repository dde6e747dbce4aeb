"""Directed conjugated-capability graph: build, prune, augment, export.

One record, ``Edge``, is both a graph edge (source -> target) and an entry
of the interrelation table, read row -> column. ``build_graph`` orients
each capability pair of the table in one pass:

* ``condition_for`` (c) points row -> column and ``depends_on`` (d)
  column -> row. The pair's c/d entries must agree on one arc, which
  becomes a c edge; two arcs are contradictory.
* A pair with no c/d entry becomes a symmetric edge from the canonically
  smaller to the canonically larger id: ``appears_with`` (a) if any entry
  is a, otherwise ``replaced_by`` (r).
* The edge is manufacturing-specific if any entry of its pair is.

Symmetric edges that would close a cycle against the already oriented
edges are dropped and reported, keeping the graph acyclic by construction:
an edge source -> target closes one exactly when target already reaches
source, which one depth-first search over the accepted edges decides.

A ConjugationGraph stores itself in canonical order (nodes sorted, edges
sorted by (source, target)), so every export and every traversal follows
that one order whatever order the graph was built in. The graph owns its
links (``successors`` and ``predecessors``, sorted) and its ``order``:
``graphlib``'s static order, both its acyclicity check and the DP order.
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
    MODERATE_R,
    STRONG_R,
    CapabilityCatalog,
    CapabilityId,
    Category,
    parse_capability_id,
    read_table,
)

__all__ = [
    "RelationKind",
    "Edge",
    "ConjugationGraph",
    "CandidateVerdict",
    "StrongCandidate",
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
class Edge:
    """A labelled arc: a graph edge, or an interrelation table entry read row -> column."""

    source: CapabilityId
    target: CapabilityId
    kind: RelationKind
    manufacturing: bool = False
    correlation: float | None = None

    def __post_init__(self):
        if self.source == self.target:
            raise GraphConstructionError(f"self relation on {self.source}")
        if not isinstance(self.manufacturing, bool):
            raise GraphConstructionError(f"manufacturing flag {self.manufacturing!r} is not a bool")
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
    order: tuple[CapabilityId, ...] = field(init=False, repr=False, compare=False)

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
        try:
            object.__setattr__(self, "order", tuple(TopologicalSorter(self.predecessors).static_order()))
        except CycleError as exc:
            raise GraphConstructionError(f"graph contains a cycle: {' -> '.join(map(str, exc.args[1]))}") from None

    # -- queries ---------------------------------------------------------

    @cached_property
    def successors(self) -> Mapping[CapabilityId, tuple[CapabilityId, ...]]:
        """Node -> the targets of its out-edges, sorted."""
        return _linked(self.nodes, ((e.source, e.target) for e in self.edges))

    @cached_property
    def predecessors(self) -> Mapping[CapabilityId, tuple[CapabilityId, ...]]:
        """Node -> the sources of its in-edges, sorted (edges sort by source first)."""
        return _linked(self.nodes, ((e.target, e.source) for e in self.edges))

    @cached_property
    def adjacency(self) -> Mapping[CapabilityId, tuple[CapabilityId, ...]]:
        """Node -> sorted neighbours joined by an edge in either direction."""
        return MappingProxyType({n: tuple(sorted(self.successors[n] + self.predecessors[n])) for n in self.nodes})

    def has_edge(self, a: CapabilityId, b: CapabilityId) -> bool:
        return b in self.successors.get(a, ())

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


def _linked(nodes, arcs) -> Mapping:
    """Node -> the far ends of the (near, far) arcs it is the near end of, in arc order."""
    linked: dict = {node: [] for node in nodes}
    for near, far in arcs:
        linked[near].append(far)
    return MappingProxyType({node: tuple(ends) for node, ends in linked.items()})


def find_cycle(nodes, arcs) -> list | None:
    """One cycle in edge direction, first node repeated last, or None."""
    try:
        TopologicalSorter(_linked(nodes, ((target, source) for source, target in arcs))).prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


def _reaches(successors: Mapping, start, goal) -> bool:
    """Whether a directed path leads from ``start`` to ``goal``, by depth-first search."""
    seen, stack = {start}, [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for target in successors[node]:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return False


def build_graph(
    table: Iterable[Edge],
    catalog: CapabilityCatalog | None = None,
) -> ConjugationGraph:
    """Orient row -> column interrelation entries, one pair at a time, into an acyclic graph.

    Raises CatalogError when an entry names an id the catalog (if given)
    lacks, and GraphConstructionError when the condition/dependency entries
    are contradictory or cyclic. Symmetric edges dropped to preserve
    acyclicity are reported on the result's ``dropped_edges``.

    One ``find_cycle`` call checks the condition/dependency skeleton. The
    symmetric edges then join it in canonical pair order, and the accepted
    edges stay acyclic, so an edge source -> target closes a cycle exactly
    when target already reaches source: one depth-first search over the
    accepted edges' successor map decides each one.
    """
    # Gather both reading directions of each unordered pair, keyed (smaller, larger).
    by_pair: dict[tuple[CapabilityId, CapabilityId], list[Edge]] = {}
    for entry in table:
        for cap_id in (entry.source, entry.target):
            if catalog is not None and cap_id not in catalog:
                raise CatalogError(f"interrelation references unknown id {cap_id}")
        by_pair.setdefault(tuple(sorted((entry.source, entry.target))), []).append(entry)

    nodes = sorted({cap for pair in by_pair for cap in pair})
    edges: list[Edge] = []  # the c edges; symmetric edges join them once the c edges prove acyclic
    symmetric: list[Edge] = []
    for (small, large), entries in sorted(by_pair.items()):
        manufacturing = any(e.manufacturing for e in entries)
        arcs = set()
        for e in entries:
            if e.kind is RelationKind.CONDITION_FOR:
                arcs.add((e.source, e.target))
            elif e.kind is RelationKind.DEPENDS_ON:
                arcs.add((e.target, e.source))
        if len(arcs) > 1:
            raise GraphConstructionError(
                f"contradictory condition/dependency orientation on pair {small}, {large}"
            )
        if arcs:
            edges.append(Edge(*arcs.pop(), RelationKind.CONDITION_FOR, manufacturing))
        else:
            kinds = {e.kind for e in entries}
            kind = RelationKind.APPEARS_WITH if RelationKind.APPEARS_WITH in kinds else RelationKind.REPLACED_BY
            symmetric.append(Edge(small, large, kind, manufacturing))

    skeleton_cycle = find_cycle(nodes, [(e.source, e.target) for e in edges])
    if skeleton_cycle is not None:
        pretty = " -> ".join(str(n) for n in skeleton_cycle)
        raise GraphConstructionError(f"condition/dependency entries form a cycle: {pretty}")

    successors: dict[CapabilityId, list[CapabilityId]] = {node: [] for node in nodes}
    for edge in edges:
        successors[edge.source].append(edge.target)
    dropped = []
    for edge in symmetric:
        if _reaches(successors, edge.target, edge.source):
            dropped.append(edge)
        else:
            edges.append(edge)
            successors[edge.source].append(edge.target)

    categories = ()
    if catalog is not None:
        categories = tuple((n, catalog[n].category.value) for n in nodes)
    return ConjugationGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        categories=categories,
        dropped_edges=tuple(dropped),
    )


def prune_weak(
    graph: ConjugationGraph, corr: Mapping[frozenset[CapabilityId], float], threshold: float
) -> ConjugationGraph:
    """Drop edges whose |r| is below the threshold; annotate survivors with r.

    ``corr`` maps each unordered endpoint pair to its r, as
    ``read_correlations`` returns it. A missing value for an edge's pair
    is an error.
    """
    if not threshold >= 0:
        raise ConfigError(f"threshold must be non-negative, got {threshold}")
    kept: list[Edge] = []
    for edge in graph.edges:
        r = corr.get(edge.pair())
        if r is None:
            raise MissingCorrelationError(
                f"no correlation for edge pair {edge.source}, {edge.target}"
            )
        if abs(r) < threshold:
            continue
        kept.append(replace(edge, correlation=float(r)))
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
    """Add eligible correlated pairs as canonical-order ``a`` edges carrying their r.

    A ``not_in_table`` candidate (absent from the interrelation table, not
    excluded by a feasibility class) whose pair is not yet an edge is added
    when strong (|r| >= STRONG_R) or, with ``repair``, moderate (MODERATE_R
    <= |r| < STRONG_R: the reachability-repair pair); a weak one never is.
    The bands are those of ``stats.classify_correlation``. Raises
    GraphConstructionError if an added edge names a node outside the graph
    or would create a cycle; the unknown node is reported first.
    """
    edges = list(graph.edges)
    existing = graph.edge_pairs()
    for cand in candidates:
        if cand.verdict is not CandidateVerdict.NOT_IN_TABLE or abs(cand.r) < (MODERATE_R if repair else STRONG_R):
            continue
        pair = frozenset((cand.c1, cand.c2))
        if pair in existing:
            continue
        source, target = sorted((cand.c1, cand.c2))
        edges.append(Edge(source, target, RelationKind.APPEARS_WITH, correlation=cand.r))
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
                    "relation": e.kind.value,
                    "manufacturing": e.manufacturing,
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
            attrs = [f'label="{edge.kind.value}{"(M)" if edge.manufacturing else ""}"']
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
                RelationKind(e["relation"]),
                e["manufacturing"],
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


def read_interrelations(lines: Iterable[str]) -> tuple[Edge, ...]:
    """The ``row_id,col_id,relation,manufacturing`` entries; a cell given twice is an error."""

    def parse(row) -> Edge:
        row_id, col_id, relation, manufacturing = row
        try:
            kind = RelationKind(relation.strip())
        except ValueError:
            raise GraphConstructionError(f"unknown relation {relation!r}") from None
        flag = manufacturing.strip()
        if flag not in ("0", "1"):
            raise GraphConstructionError(f"manufacturing flag {manufacturing!r} is not 0 or 1")
        return Edge(
            source=parse_capability_id(row_id),
            target=parse_capability_id(col_id),
            kind=kind,
            manufacturing=flag == "1",
        )

    columns = ("row_id", "col_id", "relation", "manufacturing")
    key = lambda edge: (edge.source, edge.target)
    describe = lambda edge: f"interrelation cell {edge.source}, {edge.target}"
    return tuple(read_table(lines, columns, "interrelation", GraphConstructionError, parse, key, describe))


def _parse_r(text) -> float:
    try:
        r = float(text)
    except ValueError:
        raise GraphConstructionError(f"correlation {text!r} is not a number") from None
    if not abs(r) <= 1.0:  # also rejects NaN
        raise GraphConstructionError(f"correlation {text!r} is not in [-1, 1]")
    return r


def read_candidates(lines: Iterable[str]) -> tuple[StrongCandidate, ...]:
    def parse(row) -> StrongCandidate:
        c1, c2, r, verdict_text = row
        try:
            verdict = CandidateVerdict(verdict_text.strip())
        except ValueError:
            raise GraphConstructionError(f"unknown candidate verdict {verdict_text!r}") from None
        return StrongCandidate(
            c1=parse_capability_id(c1),
            c2=parse_capability_id(c2),
            r=_parse_r(r),
            verdict=verdict,
        )

    return tuple(read_table(lines, ("c1", "c2", "r", "verdict"), "candidate", GraphConstructionError, parse))


def read_correlations(lines: Iterable[str]) -> dict[frozenset[CapabilityId], float]:
    """Long-form ``id1,id2,r`` rows as {unordered pair: r}; a pair given twice, in either order, is an error."""

    def parse(row) -> tuple[CapabilityId, CapabilityId, float]:
        id1, id2, r = row
        return parse_capability_id(id1), parse_capability_id(id2), _parse_r(r)

    key = lambda row: frozenset(row[:2])
    describe = lambda row: f"correlation pair {row[0]}, {row[1]}"
    rows = read_table(lines, ("id1", "id2", "r"), "correlation", GraphConstructionError, parse, key, describe)
    return {frozenset((a, b)): r for a, b, r in rows}


def _fixture_text(name: str) -> str:
    return resources.files("capnet.fixtures").joinpath(name).read_text("utf-8")


def load_interrelations(path) -> tuple[Edge, ...]:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_interrelations(handle)


def load_candidates(path) -> tuple[StrongCandidate, ...]:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_candidates(handle)


def load_correlations(path) -> dict[frozenset[CapabilityId], float]:
    with open(path, newline="", encoding="utf-8") as handle:
        return read_correlations(handle)


def load_default_interrelations() -> tuple[Edge, ...]:
    return read_interrelations(_fixture_text("interrelations.csv").splitlines())


def load_default_candidates() -> tuple[StrongCandidate, ...]:
    return read_candidates(_fixture_text("strong_candidates.csv").splitlines())


def load_default_correlations() -> dict[frozenset[CapabilityId], float]:
    return read_correlations(_fixture_text("reference_correlations.csv").splitlines())
