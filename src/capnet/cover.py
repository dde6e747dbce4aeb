"""Exact binary set-multicover solver for path selection.

Minimizes the number of selected paths subject to every node being visited
between p_max and p_hat_max times across the selection. Solved as a binary
program by the HiGHS MIP solver (``scipy.optimize.milp``) with a zero
relative gap, so the objective is exact.

Tie-breaking: among optima the lexicographically smallest index set is
returned whenever the candidate-column count W is within
``DEFAULT_LEX_LIMIT`` (512). There column w costs W² + w, exact in
doubles; W² > k·(W−1) for every k ≤ W, so the first solve returns a
minimum-cardinality selection with the smallest index sum. Indices are
then fixed in ascending order by a descent of probes, each of which
fixes an index or lowers the bound on the next: at most k* + W probes
for k* selected of W columns, far fewer in practice. The first solve and
every probe accept an LP point by one rule: an LP-infeasible program is
MIP-infeasible, an LP point within 1e-9 of 0/1 whose exact recount meets
the rows is the answer, and any other point runs the MIP. The visit rows
are one CSC matrix built once. A probe spans only the free columns, from
its window's start on: the chosen prefix's visits come off the visit
rows' bounds, its size off the cap, and its two rows are appended to the
slice. Every program is 0 ≤ x ≤ 1. Larger instances count paths only
and return HiGHS's deterministic MIP optimum, which depends on the
scipy/HiGHS version; the result records which guarantee applied.

``solve_priced_cover`` solves a larger instance without listing its
paths, by column generation (Gilmore & Gomory, 1961; Desrosiers &
Lübbecke, 2005). HiGHS ``linprog`` solves the path LP (0 <= x <= 1) over
a pool of paths; its node duals π price every path at reduced cost
1 − Σπ, and a DP over the DAG (``synthesis.PathPricer``) adds the best
unpooled paths until none is negative. The first round runs no LP: one
weight of 2 on every node ranks paths by node count, so it pools the
longest paths. Each pooled path's visit row is made once, and each LP
stacks the rows in canonical path order. The dual objective LP* then
bounds every selection, so a pool MIP that reaches ⌈LP*⌉ is optimal over
all paths. Nothing else is trusted: when the LP keeps an artificial, or
the pool MIP finds no selection or a larger one, the caller enumerates
the paths, and ``solve_cover`` settles the instance and names the binding
nodes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .errors import AnnotationError, ConfigError, InfeasibleCoverError
from .taxonomy import DEFAULT_P_HAT_MAX, DEFAULT_P_MAX, CapabilityId

if TYPE_CHECKING:
    from .synthesis import PathPricer

__all__ = [
    "CoverProblem",
    "CoverSolution",
    "solve_cover",
    "solve_priced_cover",
    "verify_cover",
    "DEFAULT_LEX_LIMIT",
]

DEFAULT_LEX_LIMIT = 512


@dataclass(frozen=True)
class CoverProblem:
    paths: tuple[tuple[CapabilityId, ...], ...]
    node_set: tuple[CapabilityId, ...]
    p_max: int = DEFAULT_P_MAX
    p_hat_max: int = DEFAULT_P_HAT_MAX

    def __post_init__(self):
        if self.p_max < 1:
            raise ConfigError(f"p_max must be >= 1, got {self.p_max}")
        if self.p_hat_max < self.p_max:
            raise ConfigError(f"p_hat_max {self.p_hat_max} < p_max {self.p_max}")
        if len(set(self.node_set)) != len(self.node_set):
            raise ConfigError("node_set contains duplicates")


@dataclass(frozen=True)
class CoverSolution:
    selected: tuple[int, ...]
    objective: int
    visit_counts: dict[CapabilityId, int]
    lexicographic: bool


def _visit_rows(paths, node_set) -> np.ndarray:
    """The paths x nodes 0/1 matrix of which node each path visits, as int8."""
    node_index = {node: j for j, node in enumerate(node_set)}
    eta = np.zeros((len(paths), len(node_set)), dtype=np.int8)
    for w, path in enumerate(paths):
        for node in path:
            if node in node_index:
                eta[w, node_index[node]] = 1
    return eta


class _CoverProgram:
    """The binary multicover program over path variables, solved by HiGHS."""

    def __init__(self, eta: np.ndarray, p_max: int, p_hat_max: int, lexicographic: bool):
        """``eta`` is the paths x nodes visit matrix, as ``_visit_rows`` makes it."""
        W = len(eta)
        self.visits = LinearConstraint(sparse.csc_array(eta.T, dtype=float), p_max, p_hat_max)
        self.n_vars = W
        self.lexicographic = lexicographic
        self.cost = W * W + np.arange(W, dtype=float) if self.lexicographic else np.ones(W)

    def probe_rows(self, low: int, high: int, k: int, taken: np.ndarray) -> LinearConstraint:
        """A probe's rows over the free columns ``low:``, in one CSC matrix.

        The columns below ``low`` are settled: ``taken`` holds the visit
        counts of the chosen ones, which come off the visit rows' bounds,
        and the rest are out. The rows are the visit rows, Σx ≤ k (what is
        left of the cap after the chosen prefix) and Σ x[low:high] ≥ 1. Each
        column holds its visit rows, then the cap row J, then, inside the
        window, the window row J + 1. ``milp`` hands one CSC constraint to
        HiGHS with no format conversion or ``vstack``.
        """
        visits = self.visits.A
        J, W = visits.shape
        n = W - low
        indptr = visits.indptr[low:] - visits.indptr[low]
        indices = np.insert(visits.indices[visits.indptr[low] :], indptr[1:], J)
        indptr = indptr + np.arange(n + 1)
        indices = np.insert(indices, indptr[1 : high - low + 1], J + 1)
        indptr += np.minimum(np.arange(n + 1), high - low)
        matrix = sparse.csc_array((np.ones(len(indices)), indices, indptr), shape=(J + 2, n))
        return LinearConstraint(
            matrix,
            np.concatenate([self.visits.lb - taken, [-np.inf, 1]]),
            np.concatenate([self.visits.ub - taken, [k, np.inf]]),
        )

    def relax(self, rows: LinearConstraint | None = None, integral: bool = False) -> np.ndarray | None:
        """Optimal point of the LP relaxation, 0 ≤ x ≤ 1, or None if infeasible.

        With ``integral`` the program is the binary MIP instead. ``rows``,
        as ``probe_rows`` builds them, replaces the visit rows; their n
        columns are the last n, so they take the cost tail. Only a MIP gets
        ``mip_rel_gap``, which means nothing to an LP. Any verdict other
        than optimal or infeasible raises AnnotationError rather than being
        mistaken for either.
        """
        rows = self.visits if rows is None else rows
        n = rows.A.shape[1]
        res = milp(
            self.cost[self.n_vars - n :],
            integrality=np.full(n, int(integral)),
            bounds=Bounds(0, 1),
            constraints=rows,
            options={"mip_rel_gap": 0} if integral else None,
        )
        if res.status == 2:
            return None
        if res.status != 0:
            kind = "MIP" if integral else "LP"
            raise AnnotationError(f"{kind} solver gave no verdict (status {res.status}: {res.message})")
        return res.x

    def select(self, rows: LinearConstraint | None = None) -> np.ndarray | None:
        """Indices of a minimum selection within the rows, or None if infeasible.

        ``rows`` defaults to the visit rows; a probe's rows span only the
        free columns, so its indices count from ``low``. Where the cost is
        lexicographic the LP goes first: an LP-infeasible program is
        MIP-infeasible, and an LP optimum within 1e-9 of a 0/1 point whose
        exact recount meets the rows is a MIP optimum. At W ≤ 512 the costs
        sum to under 1.4e8, so the rounding moves the cost by under 0.14,
        less than 1, the least gap between two selections' costs. Any other
        point, or a cost that is not lexicographic, runs the MIP.
        """
        rows = self.visits if rows is None else rows
        if self.lexicographic:
            point = self.relax(rows)
            if point is None:
                return None
            x = np.round(point)
            counts = rows.A @ x  # sums of 0/1 terms, exact in doubles
            integral = np.abs(point - x).max() <= 1e-9
            if integral and ((rows.lb <= counts) & (counts <= rows.ub)).all():
                return np.flatnonzero(x)
        x = self.relax(rows, integral=True)
        return None if x is None else np.flatnonzero(x > 0.5)


def _lexicographic_minimum(program: _CoverProgram, witness: np.ndarray) -> np.ndarray:
    """Smallest optimal index set in lexicographic order.

    Fixes indices in ascending order. With the chosen prefix fixed, every
    index below ``low`` outside it ruled out, and the selection capped at
    the optimum k*, the next index is the smallest one at or above ``low``
    that some feasible selection uses. The witness's smallest index
    ``high`` at or above ``low`` bounds it from above; a probe demanding at
    least one index in [low, high) settles it: an infeasible probe rules
    out [low, high) and fixes ``high``, a feasible probe's witness lowers
    ``high``. At most k* + W probes; the index-weighted cost keeps
    witnesses low, so most indices need one probe or none. Each probe is a
    ``select`` over only the free columns ``low:``: the chosen prefix's
    visits come off the visit rows' bounds and its size off the cap.
    """
    visits = program.visits.A
    k_star = len(witness)
    chosen: list[int] = []
    taken = np.zeros(visits.shape[0])
    low = 0
    for _ in range(k_star):
        high = int(witness[witness >= low][0])
        while low < high:
            probe = program.select(program.probe_rows(low, high, k_star - len(chosen), taken))
            if probe is None:
                low = high
            else:
                witness = probe + low
                high = int(witness[0])
        chosen.append(high)
        taken[visits.indices[visits.indptr[high] : visits.indptr[high + 1]]] += 1
        low = high + 1
    return np.array(chosen)


def _infeasibility_diagnostic(problem: CoverProblem, eta: np.ndarray) -> list[CapabilityId]:
    """Best-effort naming of nodes blocking feasibility when the caps conflict.

    Every node lies on at least p_max paths (``solve_cover`` checks that
    first), so these are the nodes a greedy max-coverage pass that respects
    p_hat_max cannot fill.
    """
    counts = np.zeros(len(problem.node_set), dtype=int)
    unused = np.ones(len(eta), dtype=bool)
    while (need := counts < problem.p_max).any():
        # Each step takes the first unused path that fits under p_hat_max and fills the most needy nodes.
        fits = unused & ((counts + eta) <= problem.p_hat_max).all(axis=1)
        gains = np.where(fits, eta[:, need].sum(axis=1), 0)
        w = int(np.argmax(gains))
        if gains[w] == 0:
            break
        counts += eta[w]
        unused[w] = False
    return sorted(
        node for node, count in zip(problem.node_set, counts) if count < problem.p_max
    )


def solve_cover(problem: CoverProblem) -> CoverSolution:
    """Exact minimum-cardinality path selection under the visit bounds.

    Raises InfeasibleCoverError naming binding nodes when no selection
    exists. At most ``DEFAULT_LEX_LIMIT`` columns the first solve is
    screened by its LP relaxation like every probe of the descent, and an
    LP-infeasible instance runs no MIP. The returned visit counts come from
    an independent recount of the selected path tuples and are re-verified
    against the bounds.
    """
    if not problem.node_set:
        return _checked_solution(problem, (), lexicographic=True)

    eta = _visit_rows(problem.paths, problem.node_set)
    under = [n for n, c in zip(problem.node_set, eta.sum(axis=0)) if c < problem.p_max]
    if under:
        raise InfeasibleCoverError(sorted(under))

    W = len(eta)
    program = _CoverProgram(eta, problem.p_max, problem.p_hat_max, lexicographic=W <= DEFAULT_LEX_LIMIT)
    selection = program.select()
    if selection is None:
        raise InfeasibleCoverError(_infeasibility_diagnostic(problem, eta))

    if program.lexicographic:
        selection = _lexicographic_minimum(program, selection)

    return _checked_solution(problem, selection, program.lexicographic)


def _checked_solution(problem: CoverProblem, selection: Sequence[int], lexicographic: bool) -> CoverSolution:
    """The solution selecting ``selection``, its visit counts recounted and checked by ``verify_cover``."""
    selected = tuple(int(w) for w in selection)
    return CoverSolution(selected, len(selected), verify_cover(problem, selected), lexicographic)


def verify_cover(problem: CoverProblem, selected: Sequence[int]) -> dict[CapabilityId, int]:
    """Independent counting pass over the selected path tuples.

    Recounts node visits straight from the path sequences (no matrix) and
    raises AnnotationError if any bound is violated.
    """
    counter: Counter[CapabilityId] = Counter()
    for w in selected:
        for node in problem.paths[w]:
            counter[node] += 1
    violations = []
    for node in problem.node_set:
        count = counter.get(node, 0)
        if not problem.p_max <= count <= problem.p_hat_max:
            violations.append((node, count))
    if violations:
        detail = ", ".join(f"{node}: {count}" for node, count in violations)
        raise AnnotationError(f"solver output violates visit bounds ({detail})")
    return {node: counter.get(node, 0) for node in problem.node_set}


# Paths priced into the restricted LP per round, beyond pooled paths that rank above them.
_BATCH = 20
# Float tolerance of the priced solve. A path prices in below reduced cost -_TOL; the LP
# bound and the ceiling test are each widened by it, never narrowed.
_TOL = 1e-6


def _restricted_lp(eta: np.ndarray, p_max: int, p_hat_max: int):
    """The path LP over the pooled columns ``eta`` (nodes x paths), 0 <= x <= 1.

    Each p_max row has an artificial costing more than any selection's
    size can reach (J·p_hat_max), so the LP is feasible for every pool.
    Returns the node duals π (p_max-row duals minus p_hat_max-row duals),
    the dual objective, which counts the upper-bound duals μ too, and the
    largest artificial.
    """
    J, P = eta.shape
    res = linprog(
        np.concatenate([np.ones(P), np.full(J, J * p_hat_max + 1.0)]),
        A_ub=np.block([[-eta, -np.eye(J)], [eta, np.zeros((J, J))]]),
        b_ub=np.concatenate([np.full(J, -float(p_max)), np.full(J, float(p_hat_max))]),
        bounds=[(0, 1)] * P + [(0, None)] * J,
        method="highs",
    )
    if res.status != 0:
        raise AnnotationError(f"LP solver gave no verdict (status {res.status}: {res.message})")
    covered, capped = -res.ineqlin.marginals[:J], -res.ineqlin.marginals[J:]
    at_bound = -res.upper.marginals[:P]
    bound = p_max * covered.sum() - p_hat_max * capped.sum() - at_bound.sum()
    return covered - capped, bound, float(res.x[P:].max(initial=0.0))


def solve_priced_cover(
    source: PathPricer, node_set: tuple[CapabilityId, ...], p_max: int, p_hat_max: int
) -> tuple[CoverProblem, CoverSolution] | None:
    """Exact minimum-cardinality selection over every path of ``source``, by pricing.

    Column generation: the restricted LP's node duals π price every path at
    reduced cost 1 − Σπ, and the source's DP returns the best ones not yet
    pooled, until none is negative. The dual objective LP* then bounds every
    selection, so a pool MIP optimum of ⌈LP*⌉ is optimal over all paths.
    Returns the problem over the pooled columns, with that selection in
    canonical path order. Returns None when the LP keeps an artificial or
    the pool MIP finds no selection or a larger one, for the caller to
    enumerate and let ``solve_cover`` decide the instance and name the
    binding nodes. At most one MIP runs.

    The first round weighs every node 2, which ranks paths by node count,
    so it pools the longest paths and runs no LP. A source with no path
    pools nothing and returns None. Each pooled path's visit row is made
    once; every later LP gets the rows stacked in canonical path order,
    and the last round's stack is the pool MIP's program.
    """
    problem = CoverProblem(paths=(), node_set=node_set, p_max=p_max, p_hat_max=p_hat_max)  # checks the settings
    rows: dict[tuple[CapabilityId, ...], np.ndarray] = {}  # each pooled path's visit row
    eta = _visit_rows((), node_set)
    pi = np.full(len(node_set), 2.0)
    while True:
        # pooled paths priced above 1 may sit at their upper bound and outrank new ones
        ranked = source.best(dict(zip(node_set, pi.tolist())), int((eta @ pi > 1).sum()) + _BATCH)
        fresh = [path for total, path in ranked if total > 1 + _TOL and path not in rows]
        if not fresh:
            break
        rows.update(zip(fresh, _visit_rows(fresh, node_set)))
        eta = np.array([rows[path] for path in sorted(rows)])
        pi, bound, artificial = _restricted_lp(eta.T, p_max, p_hat_max)
    if not rows or artificial > _TOL:
        return None

    problem = replace(problem, paths=tuple(sorted(rows)))
    pooled = _CoverProgram(eta, p_max, p_hat_max, lexicographic=False)
    best = pooled.select()
    if best is None or len(best) > math.ceil(bound - math.ceil(bound) * _TOL):
        return None
    return problem, _checked_solution(problem, best, lexicographic=False)
