"""Capability deltas, fuzzy feasibility, and delta-compensation allocation.

A delta is requirement minus capacity per capability: positive values are
deficits, negative values usable reserves. An agent can take an action if
every delta stays within its per-capability slack and the summed deficit
stays within the aggregate slack. When the test fails, requirement units
are shifted from deficient capabilities to conjugated capabilities with
reserves. Whether some shift sequence makes the test hold is decided as a
flow from deficits to conjugated reserves, by augmenting paths, in time
polynomial in the number of capabilities; a feasible trace shifts the
fewest units that any sequence can.
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
    missing = profile.missing_from(requirements.requirements)
    if missing:
        raise IncompleteProfileError(missing)
    return {cap: req - profile.values[cap] for cap, req in requirements.requirements.items()}


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

    def xi_for(self, cap: CapabilityId) -> int:
        return self.xi.get(cap, 0)


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
    """Test both fuzzy clauses: delta_j <= xi_j for all j, and deficit sum <= theta."""
    max_theta = len(deltas) * QUANT_MAX
    if fuzz.theta > max_theta:
        raise ConfigError(f"theta {fuzz.theta} exceeds requirement-set cap {max_theta}")
    violations = tuple(
        (cap, delta, fuzz.xi_for(cap))
        for cap, delta in sorted(deltas.items())
        if delta > fuzz.xi_for(cap)
    )
    total = deficit_sum(deltas)
    aggregate = (total, fuzz.theta) if total > fuzz.theta else None
    return FeasibilityReport(
        feasible=not violations and aggregate is None,
        per_capability_violations=violations,
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
    """
    deltas = compute_delta(requirements, profile)
    deficits = sorted((cap for cap, d in deltas.items() if d > 0), key=lambda cap: (-deltas[cap], cap))
    spare = {cap: -d for cap, d in deltas.items() if d < 0}
    neighbours = {d: [r for r in graph.adjacency.get(d, ()) if r in spare] for d in deficits}
    flow: dict[CapabilityId, dict[CapabilityId, int]] = {d: {} for d in deficits}
    sent = dict.fromkeys(deficits, 0)

    def push(deficient: CapabilityId, limit: int, visited: set[CapabilityId]) -> int:
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
                        moved = push(other, min(limit, held), visited)
                        if moved:
                            flow[other][reserve] = held - moved
                            break
            if moved:
                flow[deficient][reserve] = flow[deficient].get(reserve, 0) + moved
                return moved
        return 0

    def route(deficient: CapabilityId, goal: int) -> bool:
        while sent[deficient] < goal:
            moved = push(deficient, goal - sent[deficient], set())
            if not moved:
                return False
            sent[deficient] += moved
        return True

    # Augmentation never lowers what another deficit sends, and a deficit
    # with no augmenting path never gains one later, so one pass in order
    # reaches the maximum flow: a failed lower bound is a Hall violation.
    feasible = all(route(d, max(0, deltas[d] - fuzz.xi_for(d))) for d in deficits)
    need = deficit_sum(deltas) - fuzz.theta
    for d in deficits:
        shortfall = need - sum(sent.values())
        if not feasible or shortfall <= 0:
            break
        route(d, min(deltas[d], sent[d] + shortfall))
    feasible = feasible and sum(sent.values()) >= need

    steps = tuple(
        CompensationStep(d, r, flow[d][r]) for d in deficits for r in neighbours[d] if flow[d].get(r)
    ) if feasible else ()
    final_reqs = dict(requirements.requirements)
    for step in steps:
        final_reqs[step.deficient] -= step.amount
        final_reqs[step.reserve] += step.amount
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
        final_report=is_feasible_fuzzy(compute_delta(final, profile), fuzz),
    )
