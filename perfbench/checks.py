"""Output checks. Each returns a list of problems; an empty list passes.

The checks hold for any correct implementation: they recount and recompute
from the artifacts with independent code (the reference oracles in
``tests/oracles.py`` and plain Python here) and pin only what the problem
defines uniquely, never a solver's choice among equal optima.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Printed cells carry six decimals, so a printed value can sit this far
# from the exact one.
PRINT_TOLERANCE = 5e-7 + 1e-12


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# -- plan ------------------------------------------------------------------------


def plan_problems(graph_json: str, sequences_csv: str, node_set, p_max: int, p_hat_max: int, objective: int) -> list[str]:
    """The plan has the optimal size, meets the visit bounds, and walks edges."""
    doc = json.loads(graph_json)
    arcs = {(e["from"], e["to"]) for e in doc["edges"]}
    rows = _csv_rows(sequences_csv)
    problems = []
    if not rows or rows[0] != ["sequence_id", "trivial_name", "steps"]:
        return ["sequence table header is wrong"]
    body = rows[1:]
    if len(body) != objective:
        problems.append(f"{len(body)} sequences, expected {objective}")
    visits = {str(node): 0 for node in node_set}
    for row in body:
        path = [token.rsplit(":", 1)[0] for token in row[2].split()]
        for node in path:
            if node in visits:
                visits[node] += 1
        for a, b in zip(path, path[1:]):
            if (a, b) not in arcs:
                problems.append(f"sequence {row[0]}: step {a}->{b} is not a graph edge")
    for node, count in visits.items():
        if not p_max <= count <= p_hat_max:
            problems.append(f"{node} visited {count} times, outside [{p_max}, {p_hat_max}]")
    return problems


# -- plan-lex -------------------------------------------------------------------


def lex_problems(result, pinned: dict) -> list[str]:
    """A lexicographic minimum is unique, so the index tuple is pinned."""
    problems = []
    if len(result.path_set) != pinned["columns"]:
        problems.append(f"{len(result.path_set)} candidate columns, pinned {pinned['columns']}")
    if tuple(result.solution.selected) != tuple(pinned["selected"]):
        problems.append(f"selected {tuple(result.solution.selected)}, pinned {tuple(pinned['selected'])}")
    if not result.solution.lexicographic:
        problems.append("solution not marked lexicographic at or below the lex limit")
    return problems


# -- analyze --------------------------------------------------------------------


def retained_columns(data_csv: str, ids, phase: str, threshold: float, population_std) -> list[list[int]]:
    """Independent re-filter: complete rows of the phase with dispersion >= threshold.

    Returns one column of integer scores per id, in the order of ``ids``.
    """
    rows = _csv_rows(data_csv)
    header = rows[0]
    where = [header.index(str(cap)) for cap in ids]
    columns: list[list[int]] = [[] for _ in ids]
    for row in rows[1:]:
        if not row or row[1] != phase:
            continue
        cells = [row[k] for k in where]
        if "" in cells:
            continue
        values = [int(cell) for cell in cells]
        if population_std(values) >= threshold:
            for column, value in zip(columns, values):
                column.append(value)
    return columns


def _matrix(text: str) -> tuple[list[str], list[list[float]]]:
    rows = _csv_rows(text)
    ids = rows[0][1:]
    values = [[math.nan if cell == "" else float(cell) for cell in row[1:]] for row in rows[1:]]
    return ids, values


def analyze_problems(corr_csv: str, pvalues_csv: str, columns, ids, resamples: int, pearson, strong: float = 0.5) -> list[str]:
    """Correlations match the two-pass oracle; p-values obey the add-one rule.

    Every p-value lies in [1/(R+1), 1], and pairs with |r| >= ``strong``
    (far beyond any permutation's reach at these sample sizes) sit at the
    floor 1/(R+1).
    """
    names = [str(cap) for cap in ids]
    corr_ids, r = _matrix(corr_csv)
    p_ids, p = _matrix(pvalues_csv)
    if corr_ids != names or p_ids != names:
        return ["matrix ids differ from the evaluation set"]
    floor = 1.0 / (resamples + 1)
    problems = []
    at_floor = 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            constant = min(columns[i]) == max(columns[i]) or min(columns[j]) == max(columns[j])
            if constant:
                if not (math.isnan(r[i][j]) and math.isnan(p[i][j])):
                    problems.append(f"{names[i]}/{names[j]}: constant column but defined cell")
                continue
            expected = pearson(columns[i], columns[j])
            if not abs(r[i][j] - expected) <= PRINT_TOLERANCE or r[i][j] != r[j][i]:
                problems.append(f"{names[i]}/{names[j]}: r {r[i][j]} vs oracle {expected:.9f}")
            if not floor - PRINT_TOLERANCE <= p[i][j] <= 1.0 or p[i][j] != p[j][i]:
                problems.append(f"{names[i]}/{names[j]}: p {p[i][j]} outside [{floor:.6f}, 1]")
            if abs(expected) >= strong:
                at_floor += 1
                if abs(p[i][j] - floor) > PRINT_TOLERANCE:
                    problems.append(f"{names[i]}/{names[j]}: |r| {abs(expected):.3f} but p {p[i][j]} above the floor")
    if at_floor == 0:
        problems.append(f"no pair with |r| >= {strong}; the floor check is vacuous")
    return problems


def exact_r_problems(matrix, columns, pairs, pearson, tolerance: float = 1e-9) -> list[str]:
    """In-memory correlation cells agree with the oracle to ``tolerance``."""
    problems = []
    for i, j in pairs:
        expected = pearson(columns[i], columns[j])
        if not abs(float(matrix.r[i, j]) - expected) <= tolerance:
            problems.append(f"cell ({i}, {j}): {float(matrix.r[i, j])!r} vs oracle {expected!r}")
    return problems


# -- allocate -------------------------------------------------------------------


def fuzzy_feasible(requirements: dict, capacities: dict, xi: dict, theta: int) -> bool:
    total = 0
    for cap, req in requirements.items():
        delta = req - capacities[cap]
        if delta > xi.get(cap, 0):
            return False
        total += max(delta, 0)
    return total <= theta


def allocation_problems(requirements: dict, capacities: dict, xi: dict, theta: int, pairs, trace) -> list[str]:
    """Conserved totals, shifts along conjugated pairs, verdict consistent with the clauses."""
    problems = []
    final = dict(trace.final_requirements.requirements)
    if sum(final.values()) != sum(requirements.values()):
        problems.append("requirement total not conserved")
    for step in trace.steps:
        if frozenset((step.deficient, step.reserve)) not in pairs:
            problems.append(f"shift {step.deficient}->{step.reserve} is not a conjugated pair")
        if step.deficient not in requirements or step.reserve not in requirements or step.amount < 1:
            problems.append(f"shift {step.deficient}->{step.reserve} x{step.amount} is malformed")
    shifted = dict(requirements)
    for step in trace.steps:
        shifted[step.deficient] -= step.amount
        shifted[step.reserve] += step.amount
    if shifted != final:
        problems.append("steps do not turn the initial requirements into the final ones")
    direct = fuzzy_feasible(requirements, capacities, xi, theta)
    outcome = trace.outcome.value
    if outcome == "feasible_direct" and (not direct or trace.steps):
        problems.append("feasible_direct on an infeasible start or with shifts")
    elif outcome == "feasible_after_compensation" and (direct or not fuzzy_feasible(final, capacities, xi, theta)):
        problems.append("compensation verdict without a feasible final state")
    elif outcome == "infeasible" and direct:
        problems.append("infeasible verdict on a feasible start")
    return problems
