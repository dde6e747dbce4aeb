"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (pure
Python, brute force, exhaustive enumeration, or one plain scipy MIP per
decision) and must not import the implementation modules it checks.
"""

import itertools
import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp


def pearson_two_pass(x, y):
    """Textbook two-pass product-moment correlation."""
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = sum((a - mean_x) ** 2 for a in x)
    syy = sum((b - mean_y) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def stable_permutation_rows(seed, rows, n):
    """The resample rows of a run: stable argsorts of one block of Philox doubles."""
    keys = np.random.Generator(np.random.Philox(key=seed)).random((rows, n))
    return np.argsort(keys, axis=1, kind="stable")


def permutation_exceedances_exact(x, y, perms):
    """Rows pi of ``perms`` with |n*sum(x*y[pi]) - sum(x)*sum(y)| >= the identity's.

    Counted in Python ints, so ties are exact. The statistic is n times the
    cross product of the centred vectors, so it orders resamples as |r|
    does; x and y must hold integer values.
    """
    assert all(float(v).is_integer() for v in (*x, *y))
    x, y = [int(v) for v in x], [int(v) for v in y]
    n, sx, sy = len(x), sum(x), sum(y)

    def statistic(order):
        return abs(n * sum(a * y[k] for a, k in zip(x, order)) - sx * sy)

    observed = statistic(range(n))
    return sum(statistic(row) >= observed for row in perms)


def population_std_two_pass(values):
    """Two-pass population standard deviation."""
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def has_cycle_dfs(nodes, arcs):
    """Recursive three-color DFS cycle check, independent of the package's."""
    adjacency = {node: [] for node in nodes}
    for source, target in arcs:
        adjacency[source].append(target)
    state = {node: 0 for node in nodes}

    def visit(node):
        state[node] = 1
        for child in adjacency[node]:
            if state[child] == 1:
                return True
            if state[child] == 0 and visit(child):
                return True
        state[node] = 2
        return False

    return any(state[node] == 0 and visit(node) for node in nodes)


def simple_paths_by_permutations(nodes, arcs, n_min):
    """Every node sequence of at least n_min distinct nodes joined by arcs, sorted.

    Tries every permutation of every length, so keep ``nodes`` small.
    """
    arcs = set(arcs)
    return sorted(
        walk
        for length in range(n_min, len(nodes) + 1)
        for walk in itertools.permutations(nodes, length)
        if all(step in arcs for step in zip(walk, walk[1:]))
    )


def brute_force_cover(paths, node_set, p_max, p_hat_max):
    """Exhaustive subset enumeration; returns the optimal objective or None."""
    best = None
    n = len(paths)
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if best is not None and size >= best:
            continue
        counts = {node: 0 for node in node_set}
        for w in range(n):
            if mask >> w & 1:
                for node in paths[w]:
                    if node in counts:
                        counts[node] += 1
        if all(p_max <= counts[node] <= p_hat_max for node in node_set):
            best = size
    return best


def brute_force_lex_min_cover(paths, node_set, p_max, p_hat_max):
    """Lexicographically smallest optimal index set by direct enumeration."""
    objective = brute_force_cover(paths, node_set, p_max, p_hat_max)
    if objective is None:
        return None
    for combo in itertools.combinations(range(len(paths)), objective):
        counts = {node: 0 for node in node_set}
        for w in combo:
            for node in paths[w]:
                if node in counts:
                    counts[node] += 1
        if all(p_max <= counts[node] <= p_hat_max for node in node_set):
            return combo
    return None


def lex_min_cover_by_columns(paths, node_set, p_max, p_hat_max):
    """Lexicographically smallest optimal index set, one MIP per column.

    Solves once for the optimum k*, then decides the columns in ascending
    order: x_w stays 1 when the program with every earlier decision,
    x_w = 1 and at most k* columns is still feasible, else x_w is 0.
    Columns after the k*-th kept one are 0 without a probe. Returns None
    when no selection satisfies the bounds.
    """
    n = len(paths)
    visits = LinearConstraint(
        np.array([[path.count(node) for path in paths] for node in node_set]), p_max, p_hat_max
    )

    def run(cost, lo, hi, extra=()):
        res = milp(cost, integrality=np.ones(n), bounds=Bounds(lo, hi), constraints=[visits, *extra])
        assert res.status in (0, 2), res.message
        return res

    first = run(np.ones(n), np.zeros(n), np.ones(n))
    if first.status == 2:
        return None
    k_star = round(first.fun)
    at_most_k = LinearConstraint(np.ones((1, n)), 0, k_star)
    lo, hi = np.zeros(n), np.ones(n)
    for w in range(n):
        if lo.sum() == k_star:
            break
        lo[w] = 1
        if run(np.zeros(n), lo, hi, [at_most_k]).status == 2:
            lo[w] = hi[w] = 0
    return tuple(int(w) for w in np.flatnonzero(lo))


def cover_lp_bound(paths, node_set, p_max, p_hat_max):
    """Optimum of the LP relaxation over every given path (0 <= x <= 1), or None if infeasible.

    Its ceiling bounds every selection from below, so a verified selection
    of that size is optimal.
    """
    visits = np.array([[path.count(node) for path in paths] for node in node_set], dtype=float)
    res = linprog(
        np.ones(len(paths)),
        A_ub=np.vstack([-visits, visits]),
        b_ub=np.concatenate([np.full(len(node_set), -p_max), np.full(len(node_set), p_hat_max)]),
        bounds=(0, 1),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else res.fun


def exhaustive_shift_feasible(requirements, capacities, pairs, xi, theta, max_requirement=6):
    """Depth-first (LIFO) search over every admissible unit-shift sequence.

    requirements/capacities/xi: dict capability -> int; pairs: set of
    frozenset pairs that are conjugated. Returns True when some reachable
    requirement state satisfies both fuzzy clauses.
    """
    def feasible(reqs):
        total = 0
        for cap, req in reqs.items():
            delta = req - capacities[cap]
            if delta > xi.get(cap, 0):
                return False
            if delta > 0:
                total += delta
        return total <= theta

    order = sorted(requirements)
    start = tuple(requirements[cap] for cap in order)
    queue = [start]
    seen = {start}
    while queue:
        state = queue.pop()
        reqs = dict(zip(order, state))
        if feasible(reqs):
            return True
        for deficient in order:
            if reqs[deficient] - capacities[deficient] <= 0 or reqs[deficient] <= 0:
                continue
            for reserve in order:
                if reserve == deficient:
                    continue
                if frozenset((deficient, reserve)) not in pairs:
                    continue
                if reqs[reserve] - capacities[reserve] >= 0:
                    continue
                if reqs[reserve] >= max_requirement:
                    continue
                if reqs[reserve] + 1 - capacities[reserve] > xi.get(reserve, 0):
                    continue
                nxt = dict(reqs)
                nxt[deficient] -= 1
                nxt[reserve] += 1
                key = tuple(nxt[cap] for cap in order)
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
    return False


def ks_distance_from_uniform(samples):
    """Kolmogorov-Smirnov distance of samples from U(0, 1)."""
    ordered = sorted(samples)
    n = len(ordered)
    d = 0.0
    for i, value in enumerate(ordered):
        d = max(d, (i + 1) / n - value, value - i / n)
    return d
