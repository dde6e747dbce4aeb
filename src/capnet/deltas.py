"""Capability deltas, fuzzy feasibility, and delta-compensation allocation.

A delta is requirement minus capacity per capability: positive values are
deficits, negative values usable reserves. An agent can take an action if
every delta stays within its per-capability slack and the summed deficit
stays within the aggregate slack. When the test fails, requirement units
are shifted from deficient capabilities to conjugated capabilities with
reserves. Whether some shift sequence makes the test hold is decided as a
flow from deficits to conjugated reserves, by augmenting paths, in time
polynomial in the number of capabilities; a feasible trace shifts the
fewest units that any sequence can. The final report is read off the
flow's own deltas rather than recomputed from the final requirements, and
the augmenting search is a module-level function handed its state, so a
query leaves no reference cycle behind for the cyclic garbage collector.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError, IncompleteProfileError
from .network import ConjugationGraph
from .profiles import Profile, RequirementSet
from .taxonomy import QUANT_MAX, CapabilityId

__all__ = [
    "FuzzyParams",
    "FeasibilityReport",
    "CompensationOutcome",
    "CompensationStep",
    "CompensationTrace",
    "compute_delta",
    "deficit_sum",
    "is_feasible_fuzzy",
    "compensate",
]


def compute_delta(requirements: RequirementSet, profile: Profile) -> dict[CapabilityId, int]:
    """Elementwise requirement minus capacity over the requirement ids."""
    reqs, values = requirements.requirements, profile.values
    if not reqs.keys() <= values.keys():
        raise IncompleteProfileError(profile.missing_from(reqs))
    return {cap: req - values[cap] for cap, req in reqs.items()}


def deficit_sum(deltas: Mapping[CapabilityId, int]) -> int:
    """Sum of positive deltas; reserves never offset deficits here."""
    return sum(d for d in deltas.values() if d > 0)


@dataclass(frozen=True)
class FuzzyParams:
    """Per-capability slack (xi) and aggregate deficit slack (theta).

    A missing xi entry defaults to zero slack. Each xi value is capped by
    the top of the quantification scale; theta is capped at use time by
    the requirement-set size times the scale maximum.
    """

    xi: dict[CapabilityId, int] = field(default_factory=dict)
    theta: int = 0

    def __post_init__(self):
        for cap, slack in self.xi.items():
            if not 0 <= slack <= QUANT_MAX:
                raise ConfigError(f"xi[{cap}] = {slack} outside [0, {QUANT_MAX}]")
        if self.theta < 0:
            raise ConfigError(f"theta must be >= 0, got {self.theta}")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the two fuzzy clauses with every violated clause named."""

    feasible: bool
    per_capability_violations: tuple[tuple[CapabilityId, int, int], ...]  # (id, delta, xi)
    aggregate_violation: tuple[int, int] | None  # (deficit sum, theta)

    def __bool__(self) -> bool:
        return self.feasible

    def describe(self) -> list[str]:
        lines = []
        for cap, delta, xi in self.per_capability_violations:
            lines.append(f"per-capability clause violated at {cap}: delta {delta} > xi {xi}")
        if self.aggregate_violation is not None:
            total, theta = self.aggregate_violation
            lines.append(f"aggregate clause violated: deficit sum {total} > theta {theta}")
        return lines


def is_feasible_fuzzy(deltas: Mapping[CapabilityId, int], fuzz: FuzzyParams) -> FeasibilityReport:
    """Test both fuzzy clauses: delta_j <= xi_j for all j, and deficit sum <= theta.

    One pass over the deltas sums the deficits and collects the violated
    capabilities (a violation needs delta_j > xi_j >= 0, so only deficits
    can violate); only the violators are sorted, by id.
    """
    max_theta = len(deltas) * QUANT_MAX
    if fuzz.theta > max_theta:
        raise ConfigError(f"theta {fuzz.theta} exceeds requirement-set cap {max_theta}")
    xi = fuzz.xi
    total = 0
    violations = []
    for cap, delta in deltas.items():
        if delta > 0:
            total += delta
            slack = xi.get(cap, 0)
            if delta > slack:
                violations.append((cap, delta, slack))
    violations.sort()
    aggregate = (total, fuzz.theta) if total > fuzz.theta else None
    return FeasibilityReport(
        feasible=not violations and aggregate is None,
        per_capability_violations=tuple(violations),
        aggregate_violation=aggregate,
    )


class CompensationOutcome(str, Enum):
    FEASIBLE_DIRECT = "feasible_direct"
    FEASIBLE_AFTER_COMPENSATION = "feasible_after_compensation"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class CompensationStep:
    deficient: CapabilityId
    reserve: CapabilityId
    amount: int


@dataclass(frozen=True)
class CompensationTrace:
    outcome: CompensationOutcome
    steps: tuple[CompensationStep, ...]
    initial_requirements: RequirementSet
    final_requirements: RequirementSet
    final_report: FeasibilityReport

    def text_report(self) -> str:
        lines = [f"outcome: {self.outcome.value}"]
        for step in self.steps:
            lines.append(f"shift {step.amount} from {step.deficient} to {step.reserve}")
        if self.outcome is CompensationOutcome.INFEASIBLE:
            lines.extend(self.final_report.describe())
        return "\n".join(lines) + "\n"

    def to_document(self) -> str:
        doc = {
            "outcome": self.outcome.value,
            "steps": [
                {"deficient": str(s.deficient), "reserve": str(s.reserve), "amount": s.amount}
                for s in self.steps
            ],
            "initial_requirements": {
                str(cap): value for cap, value in sorted(self.initial_requirements.requirements.items())
            },
            "final_requirements": {
                str(cap): value for cap, value in sorted(self.final_requirements.requirements.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _augment(
    deficient: CapabilityId,
    limit: int,
    visited: set[CapabilityId],
    deficits: list[CapabilityId],
    neighbours: dict[CapabilityId, list[CapabilityId]],
    spare: dict[CapabilityId, int],
    flow: dict[CapabilityId, dict[CapabilityId, int]],
) -> int:
    # Depth-first augmenting path: a reserve with room takes the units,
    # a full one passes them on by rerouting another deficit's flow into
    # it. Each reserve is entered once, so depth is at most the reserves.
    for reserve in neighbours[deficient]:
        if reserve in visited:
            continue
        visited.add(reserve)
        moved = min(limit, spare[reserve])
        if moved:
            spare[reserve] -= moved
        else:
            for other in deficits:
                held = flow[other].get(reserve, 0)
                if held and other != deficient:
                    moved = _augment(other, min(limit, held), visited, deficits, neighbours, spare, flow)
                    if moved:
                        flow[other][reserve] = held - moved
                        break
        if moved:
            flow[deficient][reserve] = flow[deficient].get(reserve, 0) + moved
            return moved
    return 0


def _route(
    deficient: CapabilityId,
    want: int,
    deficits: list[CapabilityId],
    neighbours: dict[CapabilityId, list[CapabilityId]],
    spare: dict[CapabilityId, int],
    flow: dict[CapabilityId, dict[CapabilityId, int]],
) -> int:
    """Send up to ``want`` more units from ``deficient``; return how many went."""
    sent = 0
    while sent < want:
        moved = _augment(deficient, want - sent, set(), deficits, neighbours, spare, flow)
        if not moved:
            break
        sent += moved
    return sent


def compensate(
    requirements: RequirementSet,
    profile: Profile,
    graph: ConjugationGraph,
    fuzz: FuzzyParams,
) -> CompensationTrace:
    """Delta-compensation allocation over a conjugation graph.

    Shifting a unit from a deficient capability d to a conjugated reserve r
    lowers delta_d and raises delta_r, and is admissible only while
    delta_d > 0 and delta_r < 0, so the deficit/reserve split never changes.
    The verdict is therefore a bipartite flow: d sends between
    max(0, delta_d - xi_d) and delta_d units, r takes at most -delta_r, and
    the total must reach the deficit sum minus theta. Augmenting paths
    first route every lower bound, then add units until the total suffices;
    deficits are taken largest delta first, ties by id. The action is
    infeasible exactly when no unit-shift sequence reaches a feasible
    state, and a feasible trace shifts the fewest units any sequence can.
    Each step is the total flow on one (deficient, reserve) pair, listed by
    deficient in that order, then by reserve id. Shifts are confined to
    capabilities carrying an explicit requirement, and conjugation works in
    either direction of the stored edge orientation.

    The deltas are computed once. The final report tests the flow's own
    deltas: each step lowers the deficient delta and raises the reserve's
    by its amount, which is exactly the delta of the final requirements.
    Without steps the final requirements are the given set itself. The
    augmenting search is a module-level function handed its state, not a
    closure: a recursive closure refers to itself through its cell, so
    every query would leave a reference cycle for the cyclic collector.
    """
    deltas = compute_delta(requirements, profile)
    xi = fuzz.xi
    need = -fuzz.theta  # deficit sum minus theta
    spare: dict[CapabilityId, int] = {}
    deficits = []
    for cap, d in deltas.items():
        if d > 0:
            deficits.append(cap)
            need += d
        elif d < 0:
            spare[cap] = -d
    deficits.sort(key=lambda cap: (-deltas[cap], cap))
    neighbours = {d: [r for r in graph.adjacency.get(d, ()) if r in spare] for d in deficits}
    flow: dict[CapabilityId, dict[CapabilityId, int]] = {d: {} for d in deficits}

    # Augmentation never lowers what another deficit sends, and a deficit
    # with no augmenting path never gains one later, so one pass in order
    # reaches the maximum flow: a failed lower bound is a Hall violation.
    sent = {}
    total = 0
    for d in deficits:
        lower = max(0, deltas[d] - xi.get(d, 0))
        sent[d] = _route(d, lower, deficits, neighbours, spare, flow)
        if sent[d] < lower:
            feasible = False
            break
        total += sent[d]
    else:
        for d in deficits:
            if total >= need:
                break
            total += _route(d, min(deltas[d] - sent[d], need - total), deficits, neighbours, spare, flow)
        feasible = total >= need

    steps = tuple(
        CompensationStep(d, r, flow[d][r]) for d in deficits for r in neighbours[d] if flow[d].get(r)
    ) if feasible else ()
    final, final_deltas = requirements, deltas
    if steps:
        final_reqs = dict(requirements.requirements)
        final_deltas = dict(deltas)
        for step in steps:
            final_reqs[step.deficient] -= step.amount
            final_reqs[step.reserve] += step.amount
            final_deltas[step.deficient] -= step.amount
            final_deltas[step.reserve] += step.amount
        final = RequirementSet(requirements.action_id, final_reqs)
    if not feasible:
        outcome = CompensationOutcome.INFEASIBLE
    elif steps:
        outcome = CompensationOutcome.FEASIBLE_AFTER_COMPENSATION
    else:
        outcome = CompensationOutcome.FEASIBLE_DIRECT
    return CompensationTrace(
        outcome=outcome,
        steps=steps,
        initial_requirements=requirements,
        final_requirements=final,
        final_report=is_feasible_fuzzy(final_deltas, fuzz),
    )
