"""Command-line entry point.

Subcommands: build-graph, synthesize, analyze, allocate, gen-data. Every
run is reproducible: randomness flows through explicit --seed flags, and
artifacts are written only to files named by flags (reports go to stdout).
Only synthesize loads scipy's solvers: it imports ``synthesis`` when it
runs, so the other commands start without scipy.optimize and scipy.sparse.

Exit codes: 0 success/feasible, 2 usage error, 3 input or data error,
4 infeasible, 5 internal invariant violation. Commands raise; the group
maps each error class to its code once (see ``_EXIT_CODES``).
"""

from __future__ import annotations

import csv
import errno
import os
import sys
from pathlib import Path
from typing import Callable

import click

from . import deltas as deltas_mod
from . import network, profiles, stats, taxonomy
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


class _Main(click.Group):
    """Runs a subcommand and turns the errors it raises into exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)))


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


@click.group(cls=_Main)
def main():
    """Conjugated-capability network toolkit."""


@main.command("build-graph")
@click.option("--catalog", "catalog_path", type=click.Path(), default=None, help="Capability catalog CSV (default: packaged).")
@click.option("--interrelations", "table_path", type=click.Path(), default=None, help="Interrelation table CSV (default: packaged).")
@click.option("--candidates", "cand_path", type=click.Path(), default=None, help="Strong-candidate table CSV (default: packaged).")
@click.option("--correlations", "corr_path", type=click.Path(), default=None, help="Pairwise correlation CSV (default: packaged reference values).")
@click.option("--threshold", type=float, default=0.4, show_default=True, help="Prune edges with |r| below this.")
@click.option("--repair/--no-repair", default=True, show_default=True, help="Add the moderate reachability-repair pair.")
@click.option("--out-graph", type=click.Path(), default=None, help="Write the structured graph document here.")
@click.option("--out-dot", type=click.Path(), default=None, help="Write the dot rendering here.")
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
    click.echo(f"nodes: {len(final.nodes)}")
    click.echo(f"edges: {len(final.edges)}")
    click.echo(f"{len(removed)} edges pruned, {len(added)} edges added")
    for a, b in removed:
        click.echo(f"  pruned {a} -- {b}")
    for a, b in added:
        click.echo(f"  added {a} -- {b}")
    if built.dropped_edges:
        click.echo(f"{len(built.dropped_edges)} symmetric edges dropped to keep the graph acyclic")
        for edge in built.dropped_edges:
            click.echo(f"  dropped {edge.source} -> {edge.target}")


@main.command("synthesize")
@click.option("--graph", "graph_path", type=click.Path(), required=True, help="Structured graph document from build-graph.")
@click.option("--catalog", "catalog_path", type=click.Path(), default=None)
@click.option("--n-min", type=click.IntRange(min=1), default=DEFAULT_N_MIN, show_default=True, help="Minimum nodes per movement sequence.")
@click.option("--p-max", type=int, default=DEFAULT_P_MAX, show_default=True, help="Minimum visits per node.")
@click.option("--p-hat-max", type=int, default=DEFAULT_P_HAT_MAX, show_default=True, help="Maximum visits per node.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Write the sequence table CSV here.")
@click.option("--out-text", type=click.Path(), default=None, help="Write the shaded text rendering here.")
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
    click.echo(f"candidate paths: {result.path_count}")
    click.echo(f"selected sequences: {result.solution.objective}")
    click.echo("visits per node:")
    for node, count in sorted(result.solution.visit_counts.items()):
        click.echo(f"  {node}: {count}")
    for warning in result.warnings:
        click.echo(f"warning: {warning}")


@main.command("analyze")
@click.option("--data", "data_path", type=click.Path(), required=True, help="Profile dataset CSV.")
@click.option("--catalog", "catalog_path", type=click.Path(), default=None)
@click.option("--phase", type=click.Choice(["pre_rehab", "post_rehab", "all"]), default="post_rehab", show_default=True)
@click.option("--threshold", type=float, default=0.2, show_default=True, help="Dispersion filter threshold.")
@click.option("--resamples", type=click.IntRange(min=1), default=10_000, show_default=True, help="Monte Carlo resamples shared by all pairs.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True, help="Key of the resample stream.")
@click.option("--out-corr", type=click.Path(), default=None, help="Write the correlation matrix CSV here.")
@click.option("--out-pvalues", type=click.Path(), default=None, help="Write the permutation p-value table here.")
def cmd_analyze(data_path, catalog_path, phase, threshold, resamples, seed, out_corr, out_pvalues):
    """Filter a dataset, compute correlations and permutation p-values."""
    catalog = _load_catalog(catalog_path)
    dataset = profiles.load_dataset(data_path, catalog)
    if phase != "all":
        dataset = dataset.with_phase(profiles.Phase(phase))
    evaluation_set = taxonomy.sitting_over_table_set(catalog)
    kept = profiles.filter_profiles(dataset, evaluation_set, threshold)
    click.echo(f"retained {len(kept)} of {len(dataset)} profiles")
    if len(kept) < 2:
        raise DatasetError("fewer than 2 profiles survive the completeness/dispersion filter")
    data = stats.profile_matrix(kept, evaluation_set)
    matrix = stats.correlation_matrix(data, evaluation_set)
    if matrix.undefined_ids():
        names = ", ".join(str(c) for c in matrix.undefined_ids())
        click.echo(f"undefined (constant) columns: {names}")
    _write(
        (out_corr, matrix.to_csv),
        (out_pvalues, lambda: stats.pairwise_permutation_pvalues(data, evaluation_set, resamples, seed).to_csv()),
    )


def _parse_xi(ctx, param, items) -> dict:
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
            raise click.BadParameter(f"{item!r}: {exc}") from None
        xi[cap] = slack
    return xi


@main.command("allocate")
@click.option("--requirements", "req_path", type=click.Path(), required=True, help="Requirement CSV with columns id,level.")
@click.option("--profiles", "data_path", type=click.Path(), required=True, help="Profile dataset CSV.")
@click.option("--agent", required=True, help="Agent id to allocate for.")
@click.option("--phase", type=click.Choice(["pre_rehab", "post_rehab", "unspecified"]), default=None, help="Phase of the agent's profile (default: only row for the agent).")
@click.option("--graph", "graph_path", type=click.Path(), required=True, help="Structured graph document.")
@click.option("--xi", multiple=True, callback=_parse_xi, help="Per-capability slack, e.g. --xi 3.03.04=1 (repeatable).")
@click.option("--theta", type=click.IntRange(min=0), default=0, show_default=True, help="Aggregate deficit slack.")
@click.option("--out-trace", type=click.Path(), default=None, help="Write the machine-readable trace document here.")
def cmd_allocate(req_path, data_path, agent, phase, graph_path, xi, theta, out_trace):
    """Judge an agent against an action, compensating deltas if needed."""
    catalog = taxonomy.load_default_catalog()
    graph = network.import_graph(Path(graph_path).read_text(encoding="utf-8"))
    dataset = profiles.load_dataset(data_path, catalog)
    requirements = _read_requirements(req_path)
    requirements.validate_against(catalog)
    fuzz = deltas_mod.FuzzyParams(xi=xi, theta=theta)
    profile = dataset.select(agent, profiles.Phase(phase) if phase else None)
    profile = profiles.propagate_main_level(profile)
    trace = deltas_mod.compensate(requirements, profile, graph, fuzz)
    click.echo(trace.text_report(), nl=False)
    _write((out_trace, trace.to_document))
    if trace.outcome is deltas_mod.CompensationOutcome.INFEASIBLE:
        sys.exit(EXIT_INFEASIBLE)


@main.command("gen-data")
@click.option("--count", type=int, default=500, show_default=True, help="Number of agents; each emits a pre/post pair.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--correlation", type=float, default=0.8, show_default=True, help="Within-main-capability correlation strength.")
@click.option("--degenerate-fraction", type=float, default=0.15, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Write the dataset CSV here.")
def cmd_gen_data(count, seed, correlation, degenerate_fraction, out_path):
    """Generate a deterministic synthetic profile dataset."""
    catalog = taxonomy.load_default_catalog()
    ids = tuple(taxonomy.sitting_over_table_set(catalog))
    config = profiles.GeneratorConfig(
        ids=ids,
        agents=count,
        within_main_correlation=correlation,
        degenerate_fraction=degenerate_fraction,
    )
    dataset = profiles.generate_synthetic_profiles(config, seed)
    _write((out_path, lambda: profiles.write_dataset(dataset, ids)))
    click.echo(f"wrote {len(dataset)} profiles for {count} agents")


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


if __name__ == "__main__":
    main()
