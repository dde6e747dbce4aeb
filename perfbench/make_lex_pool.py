"""Regenerate ``lex_pool.json``, the pinned instances of the plan-lex workload.

Usage: python3 perfbench/make_lex_pool.py

Draws node subsets of the default graph's sitting over-table set from a
fixed generator seed, keeps the first feasible instance for each
(column band, p_max) slot, and pins the selected index tuple the current
solver returns. Every instance is at or below the cover module's
``DEFAULT_LEX_LIMIT``, so the tuple is the lexicographically smallest
optimum: any correct solver must return the same one.
"""

from __future__ import annotations

import json
import random
import sys
import time

from harness import BENCH_DIR, use_checkout_sources
from workloads import default_graph

POOL = BENCH_DIR / "lex_pool.json"
GENERATOR_SEED = 20250710
N_MIN = 4
# (lowest columns, highest columns, p_max); p_hat_max is p_max + 1.
SLOTS = (
    (128, 200, 2),
    (200, 280, 3),
    (280, 360, 4),
    (360, 440, 2),
    (440, 512, 3),
)


def generate():
    from capnet import synthesis, taxonomy
    from capnet.errors import InfeasibleCoverError

    catalog, graph = default_graph()
    over_table = taxonomy.sitting_over_table_set(catalog)
    rng = random.Random(GENERATOR_SEED)
    pool = []
    for low, high, p_max in SLOTS:
        while True:
            subset = sorted(rng.sample(over_table, rng.randint(10, 18)))
            columns = len(synthesis.enumerate_paths(graph.restricted_to(subset), N_MIN))
            if not low <= columns <= high:
                continue
            started = time.perf_counter()
            try:
                result = synthesis.synthesize(graph, subset, N_MIN, p_max, p_max + 1)
            except InfeasibleCoverError:
                continue
            pool.append(
                {
                    "nodes": [str(n) for n in subset],
                    "n_min": N_MIN,
                    "p_max": p_max,
                    "p_hat_max": p_max + 1,
                    "columns": columns,
                    "objective": result.solution.objective,
                    "selected": list(result.solution.selected),
                    "seconds_when_pinned": round(time.perf_counter() - started, 3),
                }
            )
            print(f"pinned {columns} columns, p_max {p_max}: {pool[-1]['seconds_when_pinned']} s", file=sys.stderr)
            break
    return pool


def main() -> int:
    use_checkout_sources()
    doc = {"generator_seed": GENERATOR_SEED, "instances": generate()}
    POOL.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
