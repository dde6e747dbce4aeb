"""Movement-sequence synthesis: path enumeration, annotation, naming, lint.

A movement sequence is one directed path through the over-table subgraph
of the conjugation graph, annotated with quantified requirement levels.
Paths of at least ``n_min`` nodes are counted by a DP over the DAG. Up to
``DEFAULT_LEX_LIMIT`` of them are enumerated and the lexicographically
smallest minimal multicover selection is solved exactly; more are priced
by ``PathPricer`` instead, and the exact minimum is found without listing
them (see cover module). Each capability's encounters across the selected
paths receive levels spread from low to high in encounter order.

Lifting levels follow the grip context: waist-to-eye and waist-overhead
lifts sharing a path with the pinch grip draw from the low half {1..3}
(nobody pinch-grips heavy weights), those sharing a path with the fist
grip draw from the high half {4..6}. A path containing both grips counts
as pinch, the protective rule.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cover import (
    DEFAULT_LEX_LIMIT,
    CoverProblem,
    CoverSolution,
    solve_cover,
    solve_priced_cover,
)
from .errors import AnnotationError, InfeasibleCoverError
from .network import ConjugationGraph
from .taxonomy import DEFAULT_N_MIN, DEFAULT_P_HAT_MAX, DEFAULT_P_MAX, CapabilityId, parse_capability_id

__all__ = [
    "MovementSequence",
    "enumerate_paths",
    "PathPricer",
    "annotate_requirements",
    "name_sequence",
    "lint_sequences",
    "synthesize",
    "sequences_to_csv",
    "sequences_to_text",
]

_PINCH = parse_capability_id("3.04.08")
_FIST = parse_capability_id("3.04.02")
_LIFTS = (parse_capability_id("5.01.01"), parse_capability_id("5.01.03"), parse_capability_id("5.01.04"))
_UPWARD_LIFTS = (parse_capability_id("5.01.03"), parse_capability_id("5.01.04"))
_HORIZONTAL_LIFT = parse_capability_id("5.01.01")
_REACH_BACKWARD = parse_capability_id("3.03.08")
_REACH_OVERHEAD = parse_capability_id("3.03.02")
_ARMS_OVERHEAD = parse_capability_id("1.06.02")
_REACH_SIDEWAYS = parse_capability_id("3.03.06")
_HEAD_SIDEWAYS = parse_capability_id("3.01.03")
_TRUNK_ROTATION = parse_capability_id("3.02.01")


def enumerate_paths(graph: ConjugationGraph, n_min: int = DEFAULT_N_MIN) -> tuple[tuple[CapabilityId, ...], ...]:
    """All simple directed paths with at least n_min nodes, in lexicographic order.

    Paths may begin and end on any node. A preorder walk from each node in
    canonical order over the graph's sorted ``successors`` emits them in
    lexicographic order. It leaves every node whose longest onward path
    (counted back along ``graph.order``) cannot bring the trail to n_min
    nodes, so each node it enters lies on a path it emits. The walk keeps
    its own stack, so a path may be longer than Python's recursion limit.
    """
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    successors = graph.successors
    longest: dict[CapabilityId, int] = {}
    for node in reversed(graph.order):
        longest[node] = 1 + max((longest[target] for target in successors[node]), default=0)
    collected: list[tuple[CapabilityId, ...]] = []
    trail: list[CapabilityId] = []
    pending = [iter(successors)]  # per depth, the nodes still to try after the trail so far
    while pending:
        for node in pending[-1]:
            if len(trail) + longest[node] >= n_min:
                trail.append(node)
                if len(trail) >= n_min:
                    collected.append(tuple(trail))
                pending.append(iter(successors[node]))
                break
        else:
            pending.pop()
            if trail:
                trail.pop()
    return tuple(collected)


class PathPricer:
    """The directed paths of at least n_min nodes, counted and priced without listing them.

    The graph is a DAG, so every directed path is simple, and a DP over the
    states (node, nodes so far capped at n_min), along ``graph.order`` from
    ``graph.predecessors``, reaches each path once: ``count`` is the exact
    path count, ``best`` the k paths of largest node-weight sum. No path
    has more nodes than the graph, so n_min is capped at one more than that.
    """

    def __init__(self, graph: ConjugationGraph, n_min: int = DEFAULT_N_MIN):
        if n_min < 1:
            raise ValueError(f"n_min must be >= 1, got {n_min}")
        self.graph = graph
        self.n_min = n_min = min(n_min, len(graph.nodes) + 1)
        ending: dict[CapabilityId, list[int]] = {}
        for node in graph.order:
            counts = [0] * (n_min + 1)
            counts[1] = 1
            for source in graph.predecessors[node]:
                for length, paths in enumerate(ending[source]):
                    counts[min(length + 1, n_min)] += paths
            ending[node] = counts
        self.count = sum(counts[n_min] for counts in ending.values())

    def best(self, weight: Mapping[CapabilityId, float], k: int) -> list[tuple[float, tuple[CapabilityId, ...]]]:
        """The k paths of largest weight sum, as (sum, path), largest first.

        A path among the k best of its state extends a path among the k
        best of its predecessor state, so keeping k per state is exact.
        Each state keeps (sum, node, entry it extends) and only the k
        returned paths are spelled out; equal sums rank in the order their
        entries were made, predecessor by predecessor.
        """
        n, graph = self.n_min, self.graph
        # per node and length, the k best entries (sum, node, the entry it extends or None)
        ending: dict[CapabilityId, list[list[tuple]]] = {}
        for node in graph.order:
            w = weight[node]
            states: list[list[tuple]] = [[] for _ in range(n + 1)]
            states[1].append((w, node, None))
            for source in graph.predecessors[node]:
                for length, ranked in enumerate(ending[source]):
                    states[min(length + 1, n)].extend((entry[0] + w, node, entry) for entry in ranked)
            ending[node] = [heapq.nlargest(k, ranked, key=itemgetter(0)) for ranked in states]
        top = heapq.nlargest(k, (entry for states in ending.values() for entry in states[n]), key=itemgetter(0))
        return [(entry[0], _spelled(entry)) for entry in top]


def _spelled(entry: tuple) -> tuple[CapabilityId, ...]:
    """The path a ``PathPricer.best`` entry ends, first node first."""
    nodes = []
    while entry is not None:
        _, node, entry = entry
        nodes.append(node)
    return tuple(reversed(nodes))


@dataclass(frozen=True)
class MovementSequence:
    sequence_id: int
    steps: tuple[tuple[CapabilityId, int], ...]
    trivial_name: str = ""

    def capability_ids(self) -> tuple[CapabilityId, ...]:
        return tuple(cap for cap, _ in self.steps)


def _lift_stream(path: Sequence[CapabilityId], cap: CapabilityId) -> str:
    if cap in _UPWARD_LIFTS:
        if _PINCH in path:
            return "pinch"
        if _FIST in path:
            return "fist"
    return "neutral"


_STREAM_RANGE = {"pinch": (1, 3), "fist": (4, 6), "neutral": (1, 6)}


def annotate_requirements(
    selected_paths: Sequence[Sequence[CapabilityId]],
    graph: ConjugationGraph,
    p_hat_max: int = DEFAULT_P_HAT_MAX,
) -> list[MovementSequence]:
    """Assign requirement levels to every step of the selected paths.

    Per capability, encounters across the paths (path order, then step
    order) receive levels from low to high; a capability seen six times
    gets exactly 1..6. Lifting capabilities are split into grip-context
    streams first (see module docstring). Raises AnnotationError when a
    capability occurs more often than p_hat_max or a path step is not a
    graph edge.
    """
    for path in selected_paths:
        for a, b in zip(path, path[1:]):
            if not graph.has_edge(a, b):
                raise AnnotationError(f"selected path step {a}->{b} is not a graph edge")

    # encounter lists per (capability, stream)
    encounters: dict[tuple[CapabilityId, str], list[tuple[int, int]]] = {}
    totals: dict[CapabilityId, int] = {}
    for path_pos, path in enumerate(selected_paths):
        for step_pos, cap in enumerate(path):
            stream = _lift_stream(path, cap)
            encounters.setdefault((cap, stream), []).append((path_pos, step_pos))
            totals[cap] = totals.get(cap, 0) + 1

    for cap, total in sorted(totals.items()):
        if total > p_hat_max:
            raise AnnotationError(f"{cap} occurs {total} times, above the cap {p_hat_max}")

    level_at: dict[tuple[int, int], int] = {}
    for (cap, stream), places in encounters.items():
        # levels spread evenly over the stream's range, non-decreasing; one encounter gets the low end
        levels = np.rint(np.linspace(*_STREAM_RANGE[stream], len(places))).astype(int)
        level_at.update(zip(places, levels.tolist()))

    sequences = []
    for path_pos, path in enumerate(selected_paths):
        steps = tuple((cap, level_at[(path_pos, step_pos)]) for step_pos, cap in enumerate(path))
        sequences.append(MovementSequence(sequence_id=path_pos, steps=steps))
    return sequences


def name_sequence(sequence: MovementSequence) -> str:
    """Heuristic trivial name summarizing the movement."""
    caps = set(sequence.capability_ids())
    if not caps:
        return "unnamed"
    if _REACH_BACKWARD in caps:
        return "pull out, from behind"
    if _ARMS_OVERHEAD in caps or _REACH_OVERHEAD in caps:
        return "reach & push, overhead"
    if any(lift in caps for lift in _LIFTS) and (_PINCH in caps or _FIST in caps):
        return "pick & place, from side"
    if _REACH_SIDEWAYS in caps or _HEAD_SIDEWAYS in caps or _TRUNK_ROTATION in caps:
        return "reach & push, sideways"
    return "reach & push, frontal"


def lint_sequences(sequences: Iterable[MovementSequence]) -> list[str]:
    """Flag upward lifts that follow a backward reach with no horizontal lift.

    Lifting upward while the arms are still in a backwards position is an
    awkward test primitive; the warning suggests inserting the horizontal
    lift first or forbidding lift generation after backward reaches.
    """
    warnings = []
    for sequence in sequences:
        ids = sequence.capability_ids()
        if _REACH_BACKWARD not in ids:
            continue
        for later in ids[ids.index(_REACH_BACKWARD) + 1 :]:
            if later == _HORIZONTAL_LIFT:
                break
            if later in _UPWARD_LIFTS:
                warnings.append(
                    f"sequence {sequence.sequence_id}: upward lift {later} follows "
                    f"backward reach without an intervening horizontal lift; insert "
                    f"{_HORIZONTAL_LIFT} before the lift or forbid lifts after backward reaches"
                )
                break
    return warnings


@dataclass(frozen=True)
class SynthesisResult:
    """The plan and what it was chosen from.

    ``path_count`` counts every path of at least n_min nodes. ``path_set``
    holds the columns the cover was solved over, in canonical order: every
    path up to the lex limit, else the priced ones. ``solution.selected``
    indexes ``path_set``.
    """

    path_count: int
    path_set: tuple[tuple[CapabilityId, ...], ...]
    solution: CoverSolution
    sequences: tuple[MovementSequence, ...]
    warnings: tuple[str, ...]


def synthesize(
    graph: ConjugationGraph,
    node_set: Sequence[CapabilityId],
    n_min: int = DEFAULT_N_MIN,
    p_max: int = DEFAULT_P_MAX,
    p_hat_max: int = DEFAULT_P_HAT_MAX,
) -> SynthesisResult:
    """Full pipeline: count, enumerate or price, solve the cover exactly, annotate, name, lint.

    A requested node the graph lacks lies on no path, like an isolated one:
    InfeasibleCoverError names them all. When pricing does not prove its
    selection optimal (see
    ``solve_priced_cover``), the paths are enumerated after all, so that
    ``solve_cover`` settles the instance and names any binding nodes.
    """
    subgraph = graph.restricted_to(node_set)
    pricer = PathPricer(subgraph, n_min)
    problem = CoverProblem(paths=(), node_set=subgraph.nodes, p_max=p_max, p_hat_max=p_hat_max)  # settings first
    if absent := sorted(set(node_set).difference(subgraph.nodes)):
        raise InfeasibleCoverError(absent)
    priced = None
    if pricer.count > DEFAULT_LEX_LIMIT:
        priced = solve_priced_cover(pricer, subgraph.nodes, p_max, p_hat_max)
    if priced is None:
        problem = replace(problem, paths=enumerate_paths(subgraph, n_min))
        solution = solve_cover(problem)
    else:
        problem, solution = priced
    path_set = problem.paths
    selected_paths = [path_set[w] for w in solution.selected]
    sequences = annotate_requirements(selected_paths, subgraph, p_hat_max)
    sequences = [
        MovementSequence(s.sequence_id, s.steps, name_sequence(s)) for s in sequences
    ]
    warnings = lint_sequences(sequences)
    return SynthesisResult(
        path_count=pricer.count,
        path_set=path_set,
        solution=solution,
        sequences=tuple(sequences),
        warnings=tuple(warnings),
    )


def sequences_to_csv(sequences: Iterable[MovementSequence]) -> str:
    """CSV rows: sequence_id, trivial_name, space-joined id:level tokens."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["sequence_id", "trivial_name", "steps"])
    for sequence in sequences:
        tokens = " ".join(f"{cap}:{level}" for cap, level in sequence.steps)
        writer.writerow([sequence.sequence_id, sequence.trivial_name, tokens])
    return buffer.getvalue()


_SHADES = {1: ".", 2: ":", 3: "-", 4: "=", 5: "#", 6: "@"}


def sequences_to_text(sequences: Iterable[MovementSequence]) -> str:
    """Human-readable table; the level shows as a light-to-dark shade mark."""
    lines = ["id  name                      sequence (level shade: 1=. 2=: 3=- 4== 5=# 6=@)"]
    for sequence in sequences:
        cells = " ".join(f"{_SHADES[level]}{cap}" for cap, level in sequence.steps)
        lines.append(f"{sequence.sequence_id:<3d} {sequence.trivial_name:<25s} {cells}")
    return "\n".join(lines) + "\n"
