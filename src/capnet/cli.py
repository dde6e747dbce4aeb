"""Command-line entry point.

Subcommands: build-graph, synthesize, analyze, allocate, gen-data. Every
run is reproducible: randomness flows through explicit --seed flags, and
artifacts are written only to files named by flags (reports go to stdout).
Each command imports the heavy modules it needs when it runs: synthesize
loads scipy's solvers (``synthesis``), analyze loads numpy (``stats``) and
gen-data numpy (its generator). Importing this module and running
build-graph or allocate load neither numpy nor scipy.

Exit codes: 0 success/feasible, 2 usage error, 3 input or data error,
4 infeasible, 5 internal invariant violation. Commands raise; ``main``
maps each error class to its code once (see ``_EXIT_CODES``).
"""

from __future__ import annotations

import argparse
import csv
import errno
import os
import sys
from pathlib import Path
from typing import Callable

from . import deltas as deltas_mod
from . import network, profiles, taxonomy
from .errors import (
    AnnotationError,
    CapnetError,
    ConfigError,
    DatasetError,
    InfeasibleCoverError,
)
from .taxonomy import DEFAULT_N_MIN, DEFAULT_P_HAT_MAX, DEFAULT_P_MAX

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5


# Error class -> exit code; the first matching class wins. An unreadable,
# undecodable or malformed input file and an unwritable output path are
# data errors, as is every CapnetError not listed before.
_EXIT_CODES = {
    ConfigError: EXIT_USAGE,
    InfeasibleCoverError: EXIT_INFEASIBLE,
    AnnotationError: EXIT_INTERNAL,
    CapnetError: EXIT_DATA,
    OSError: EXIT_DATA,
    UnicodeDecodeError: EXIT_DATA,
    csv.Error: EXIT_DATA,
}


def _load_catalog(path):
    if path is None:
        return taxonomy.load_default_catalog()
    return taxonomy.load_catalog(path)


def _write(*artifacts: tuple[str | None, Callable[[], str]]) -> None:
    """Render each ``(path, render)`` artifact whose path is set, then write all or none.

    Two artifacts resolving to one path are a usage error, raised before
    anything is rendered. The targets are replaced only once every text is
    staged beside its own, so an unwritable path leaves no new file and
    every old one unchanged.
    """
    targets = [(Path(path).resolve(), render) for path, render in artifacts if path]
    for k, (target, _) in enumerate(targets):
        if any(target == earlier for earlier, _ in targets[:k]):
            raise ConfigError(f"two output flags name the same path {target}")
    rendered = {target: render() for target, render in targets}
    staged: dict[Path, Path] = {}
    try:
        for target, text in rendered.items():
            target.parent.mkdir(parents=True, exist_ok=True)
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            staged[target] = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged[target].write_text(text, encoding="utf-8", newline="")
        for target, temporary in staged.items():
            os.replace(temporary, target)
    finally:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)


def cmd_build_graph(catalog_path, table_path, cand_path, corr_path, threshold, repair, out_graph, out_dot):
    """Build, prune, and augment the conjugated-capability graph."""
    catalog = _load_catalog(catalog_path)
    table = network.load_interrelations(table_path) if table_path else network.load_default_interrelations()
    candidates = network.load_candidates(cand_path) if cand_path else network.load_default_candidates()
    correlations = network.load_correlations(corr_path) if corr_path else network.load_default_correlations()
    built = network.build_graph(table, catalog)
    pruned = network.prune_weak(built, correlations, threshold)
    final = network.augment_strong(pruned, candidates, repair=repair)
    _write(
        (out_graph, lambda: network.export_graph(final, "structured")),
        (out_dot, lambda: network.export_graph(final, "dot", catalog=catalog)),
    )
    removed = sorted(
        tuple(str(x) for x in sorted(pair)) for pair in built.edge_pairs() - pruned.edge_pairs()
    )
    added = sorted(
        tuple(str(x) for x in sorted(pair)) for pair in final.edge_pairs() - pruned.edge_pairs()
    )
    print(f"nodes: {len(final.nodes)}")
    print(f"edges: {len(final.edges)}")
    print(f"{len(removed)} edges pruned, {len(added)} edges added")
    for a, b in removed:
        print(f"  pruned {a} -- {b}")
    for a, b in added:
        print(f"  added {a} -- {b}")
    if built.dropped_edges:
        print(f"{len(built.dropped_edges)} symmetric edges dropped to keep the graph acyclic")
        for edge in built.dropped_edges:
            print(f"  dropped {edge.source} -> {edge.target}")


def cmd_synthesize(graph_path, catalog_path, n_min, p_max, p_hat_max, out_path, out_text):
    """Synthesize the minimal movement-sequence test plan."""
    from . import synthesis  # here, not at the top: only this command needs scipy.optimize

    catalog = _load_catalog(catalog_path)
    graph = network.import_graph(Path(graph_path).read_text(encoding="utf-8"))
    node_set = taxonomy.sitting_over_table_set(catalog)
    result = synthesis.synthesize(graph, node_set, n_min=n_min, p_max=p_max, p_hat_max=p_hat_max)
    _write(
        (out_path, lambda: synthesis.sequences_to_csv(result.sequences)),
        (out_text, lambda: synthesis.sequences_to_text(result.sequences)),
    )
    print(f"candidate paths: {result.path_count}")
    print(f"selected sequences: {result.solution.objective}")
    print("visits per node:")
    for node, count in sorted(result.solution.visit_counts.items()):
        print(f"  {node}: {count}")
    for warning in result.warnings:
        print(f"warning: {warning}")


def cmd_analyze(data_path, catalog_path, phase, threshold, resamples, seed, out_corr, out_pvalues):
    """Filter a dataset, compute correlations and permutation p-values.

    The dataset is read into score rows and filtered straight into the one
    matrix both tables read; no ``Profile`` is built.
    """
    from . import stats  # here, not at the top: build-graph and allocate start without numpy

    catalog = _load_catalog(catalog_path)
    table = profiles.load_dataset(data_path, catalog)
    if phase != "all":
        table = table.with_phase(profiles.Phase(phase))
    evaluation_set = taxonomy.sitting_over_table_set(catalog)
    data = table.retained(evaluation_set, threshold)
    print(f"retained {len(data)} of {len(table)} profiles")
    if len(data) < 2:
        raise DatasetError("fewer than 2 profiles survive the completeness/dispersion filter")
    matrix = stats.correlation_matrix(data, evaluation_set)
    if matrix.undefined_ids():
        names = ", ".join(str(c) for c in matrix.undefined_ids())
        print(f"undefined (constant) columns: {names}")
    _write(
        (out_corr, matrix.to_csv),
        (out_pvalues, lambda: stats.pairwise_permutation_pvalues(data, evaluation_set, resamples, seed).to_csv()),
    )


def _parse_xi(items) -> dict:
    """``--xi ID=SLACK`` items as a capability -> slack map; a bad or repeated item is a usage error."""
    xi = {}
    for item in items:
        key, sep, value = item.partition("=")
        try:
            if not sep:
                raise ValueError("expected ID=SLACK")
            cap, slack = taxonomy.parse_capability_id(key), taxonomy.parse_score(value)
            if cap in xi:
                raise ValueError(f"slack for {cap} repeats")
            deltas_mod.FuzzyParams(xi={cap: slack})
        except (ValueError, CapnetError) as exc:
            raise ConfigError(f"--xi {item!r}: {exc}") from None
        xi[cap] = slack
    return xi


def cmd_allocate(req_path, data_path, agent, phase, graph_path, xi, theta, out_trace):
    """Judge an agent against an action, compensating deltas if needed."""
    fuzz = deltas_mod.FuzzyParams(xi=_parse_xi(xi), theta=theta)
    catalog = taxonomy.load_default_catalog()
    graph = network.import_graph(Path(graph_path).read_text(encoding="utf-8"))
    dataset = profiles.load_dataset(data_path, catalog)
    requirements = _read_requirements(req_path)
    requirements.validate_against(catalog)
    profile = dataset.select(agent, profiles.Phase(phase) if phase else None)
    profile = profiles.propagate_main_level(profile)
    trace = deltas_mod.compensate(requirements, profile, graph, fuzz)
    print(trace.text_report(), end="")
    _write((out_trace, trace.to_document))
    if trace.outcome is deltas_mod.CompensationOutcome.INFEASIBLE:
        return EXIT_INFEASIBLE


def cmd_gen_data(count, seed, correlation, degenerate_fraction, out_path):
    """Generate a deterministic synthetic profile dataset."""
    catalog = taxonomy.load_default_catalog()
    config = profiles.GeneratorConfig(
        ids=tuple(taxonomy.sitting_over_table_set(catalog)),
        agents=count,
        within_main_correlation=correlation,
        degenerate_fraction=degenerate_fraction,
    )
    dataset = profiles.generate_synthetic_profiles(config, seed)
    _write((out_path, lambda: profiles.write_dataset(dataset)))
    print(f"wrote {len(dataset)} profiles for {count} agents")


def _read_requirements(path) -> "profiles.RequirementSet":
    def parse(row) -> tuple:
        cap_id, level = row
        cap = taxonomy.parse_capability_id(cap_id)
        try:
            return cap, taxonomy.quantification(taxonomy.parse_score(level))
        except (ValueError, CapnetError) as exc:
            raise DatasetError(f"requirement level: {exc}") from None

    key = lambda row: row[0]
    describe = lambda row: f"requirement id {row[0]}"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = taxonomy.read_table(handle, ("id", "level"), "requirement", DatasetError, parse, key, describe)
    return profiles.RequirementSet(action_id=str(path), requirements=dict(rows))


def _int_range(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse ``type``: an integer in [low, high] (no upper end when ``high`` is None)."""

    def integer(text: str) -> int:  # argparse names it in its error: "invalid integer value: 'x'"
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"{value} is not an integer " + (f">= {low}" if high is None else f"in [{low}, {high}]"))
        return value

    return integer


def _parser() -> argparse.ArgumentParser:
    """One subparser per command, its ``run`` default the command; no parser takes a prefix of an option."""
    parser = argparse.ArgumentParser(prog="capnet", description="Conjugated-capability network toolkit.", allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    option = command("build-graph", cmd_build_graph)
    option("--catalog", dest="catalog_path", help="Capability catalog CSV (default: packaged).")
    option("--interrelations", dest="table_path", help="Interrelation table CSV (default: packaged).")
    option("--candidates", dest="cand_path", help="Strong-candidate table CSV (default: packaged).")
    option("--correlations", dest="corr_path", help="Pairwise correlation CSV (default: packaged reference values).")
    option("--threshold", type=float, default=0.4, help="Prune edges with |r| below this (default: %(default)s).")
    option("--repair", action=argparse.BooleanOptionalAction, default=True, help="Add the moderate reachability-repair pair (on unless --no-repair).")
    option("--out-graph", help="Write the structured graph document here.")
    option("--out-dot", help="Write the dot rendering here.")

    option = command("synthesize", cmd_synthesize)
    option("--graph", dest="graph_path", required=True, help="Structured graph document from build-graph.")
    option("--catalog", dest="catalog_path", help="Capability catalog CSV (default: packaged).")
    option("--n-min", type=_int_range(1), default=DEFAULT_N_MIN, help="Minimum nodes per movement sequence (default: %(default)s).")
    option("--p-max", type=int, default=DEFAULT_P_MAX, help="Minimum visits per node (default: %(default)s).")
    option("--p-hat-max", type=int, default=DEFAULT_P_HAT_MAX, help="Maximum visits per node (default: %(default)s).")
    option("--out", dest="out_path", help="Write the sequence table CSV here.")
    option("--out-text", help="Write the shaded text rendering here.")

    option = command("analyze", cmd_analyze)
    option("--data", dest="data_path", required=True, help="Profile dataset CSV.")
    option("--catalog", dest="catalog_path", help="Capability catalog CSV (default: packaged).")
    option("--phase", choices=["pre_rehab", "post_rehab", "all"], default="post_rehab", help="Profiles of this phase, or all (default: %(default)s).")
    option("--threshold", type=float, default=0.2, help="Dispersion filter threshold (default: %(default)s).")
    option("--resamples", type=_int_range(1), default=10_000, help="Monte Carlo resamples shared by all pairs (default: %(default)s).")
    option("--seed", type=_int_range(0, 2**64 - 1), default=0, help="Key of the resample stream (default: %(default)s).")
    option("--out-corr", help="Write the correlation matrix CSV here.")
    option("--out-pvalues", help="Write the permutation p-value table here.")

    option = command("allocate", cmd_allocate)
    option("--requirements", dest="req_path", required=True, help="Requirement CSV with columns id,level.")
    option("--profiles", dest="data_path", required=True, help="Profile dataset CSV.")
    option("--agent", required=True, help="Agent id to allocate for.")
    option("--phase", choices=["pre_rehab", "post_rehab", "unspecified"], help="Phase of the agent's profile (default: only row for the agent).")
    option("--graph", dest="graph_path", required=True, help="Structured graph document.")
    option("--xi", action="append", default=[], help="Per-capability slack, e.g. --xi 3.03.04=1 (repeatable).")
    option("--theta", type=_int_range(0), default=0, help="Aggregate deficit slack (default: %(default)s).")
    option("--out-trace", help="Write the machine-readable trace document here.")

    option = command("gen-data", cmd_gen_data)
    option("--count", type=int, default=500, help="Number of agents; each emits a pre/post pair (default: %(default)s).")
    option("--seed", type=_int_range(0), default=0, help="Generator seed (default: %(default)s).")
    option("--correlation", type=float, default=0.8, help="Within-main-capability correlation strength (default: %(default)s).")
    option("--degenerate-fraction", type=float, default=0.15, help="Share of profiles emitted constant or with holes (default: %(default)s).")
    option("--out", dest="out_path", required=True, help="Write the dataset CSV here.")
    return parser


_PARSER = _parser()  # built once: a process may call ``main`` many times


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run ``capnet`` on ``args`` (default ``sys.argv[1:]``); exit with its code, or return it unless ``standalone_mode``.

    argparse reports a usage error itself, with code 2. A command's error goes
    to stderr as ``error: ...``, its code taken from ``_EXIT_CODES``.
    """
    try:
        options = vars(_PARSER.parse_args(args))
        code = options.pop("run")(**options) or 0
    except SystemExit as exc:  # raised by argparse after printing usage or help
        code = exc.code
    except tuple(_EXIT_CODES) as exc:
        sys.stdout.flush()  # the report so far precedes the error where both streams share a file
        print(f"error: {exc}", file=sys.stderr)
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
