import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from capnet import network
from capnet.cli import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_USAGE,
    main,
)


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order they were written
    exception: Exception | None


class _Tee(io.StringIO):
    """A captured stream that also copies every write to a shared one."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, text):
        self.shared.write(text)
        return super().write(text)


class CliRunner:
    """Runs a command-line entry point in-process with stdout and stderr captured."""

    def invoke(self, main, args):
        shared = io.StringIO()
        out, err = _Tee(shared), _Tee(shared)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, out.getvalue(), err.getvalue(), shared.getvalue(), exception)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def graph_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.json"
    result = CliRunner().invoke(main, ["build-graph", "--out-graph", str(path)])
    assert result.exit_code == 0, result.output
    return path


def fixture_path(name):
    from importlib import resources

    return str(resources.files("capnet.fixtures").joinpath(name))


class TestBuildGraph:
    def test_default_report(self, runner, tmp_path):
        out = tmp_path / "graph.json"
        dot = tmp_path / "graph.dot"
        result = runner.invoke(
            main, ["build-graph", "--out-graph", str(out), "--out-dot", str(dot)]
        )
        assert result.exit_code == 0
        assert "4 edges pruned, 3 edges added" in result.output
        assert "nodes: 30" in result.output
        graph = network.import_graph(out.read_text())
        assert len(graph.edges) == 114
        assert dot.read_text().startswith("digraph")

    def test_dropped_symmetric_edge_reported(self, runner, tmp_path):
        table = tmp_path / "interrelations.csv"
        table.write_text(
            "row_id,col_id,relation,manufacturing\n"
            "3.03.04,3.02.01,c,0\n"  # 3.03.04 -> 3.02.01
            "3.02.01,1.01,c,0\n"  # 3.02.01 -> 1.01
            "1.01,3.03.04,a,0\n"  # canonical 1.01 -> 3.03.04 closes a cycle
        )
        corr = tmp_path / "corr.csv"
        corr.write_text("id1,id2,r\n3.03.04,3.02.01,0.5\n3.02.01,1.01,0.5\n1.01,3.03.04,0.5\n")
        candidates = tmp_path / "candidates.csv"
        candidates.write_text("c1,c2,r,verdict\n")
        out = tmp_path / "graph.json"
        result = runner.invoke(
            main,
            ["build-graph", "--interrelations", str(table), "--correlations", str(corr),
             "--candidates", str(candidates), "--out-graph", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "1 symmetric edges dropped to keep the graph acyclic\n  dropped 1.01 -> 3.03.04\n" in result.output
        pairs = {tuple(sorted(str(c) for c in pair)) for pair in network.import_graph(out.read_text()).edge_pairs()}
        assert pairs == {("1.01", "3.02.01"), ("3.02.01", "3.03.04")}

    def test_no_repair(self, runner):
        result = runner.invoke(main, ["build-graph", "--no-repair"])
        assert result.exit_code == 0
        assert "4 edges pruned, 2 edges added" in result.output

    def test_weak_candidate_never_added(self, runner, tmp_path):
        cands = tmp_path / "candidates.csv"
        cands.write_text("c1,c2,r,verdict\n1.01,1.06.01,0.05,not_in_table\n")
        result = runner.invoke(main, ["build-graph", "--candidates", str(cands)])
        assert result.exit_code == 0, result.output
        assert "4 edges pruned, 0 edges added" in result.output

    def test_nan_threshold_usage_error(self, runner, tmp_path):
        out = tmp_path / "graph.json"
        result = runner.invoke(main, ["build-graph", "--threshold", "nan", "--out-graph", str(out)])
        assert result.exit_code == EXIT_USAGE, result.output
        assert "threshold must be non-negative, got nan" in result.output
        assert not out.exists()

    def test_missing_fixture_file_is_io_error(self, runner):
        result = runner.invoke(main, ["build-graph", "--interrelations", "/nonexistent.csv"])
        assert result.exit_code == EXIT_DATA

    def test_unreadable_table_data_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("row_id,col_id,relation,manufacturing\n1.01,1.01,c,0\n")
        result = runner.invoke(main, ["build-graph", "--interrelations", str(bad)])
        assert result.exit_code == EXIT_DATA

    @pytest.mark.parametrize(
        "flag, text, line",
        [
            pytest.param("--correlations", "a,b,c\n1.01,1.05.01,0.5\n", 1, id="correlations-header"),
            pytest.param("--correlations", "id1,id2,r\n1.01,1.05.01,strong\n", 2, id="correlations-r"),
            pytest.param("--candidates", "a,b,c,d\n1.05.01,1.05.02,0.81,impossible\n", 1, id="candidates-header"),
            pytest.param("--candidates", "c1,c2,r,verdict\n1.05.01,1.05.02,0.81,maybe\n", 2, id="candidates-verdict"),
            pytest.param("--candidates", "c1,c2,r,verdict\n1.05.01,1.05.02,high,impossible\n", 2, id="candidates-r"),
            pytest.param("--interrelations", "row_id,col_id,relation,manufacturing\n1.01,1.05.01,z,0\n", 2, id="interrelations-letter"),
            pytest.param("--interrelations", "row_id,col_id,relation,manufacturing\n1.01,1.05.01\n", 2, id="interrelations-short"),
            pytest.param("--interrelations", "row_id,col_id,relation,manufacturing\n1.01,3.²,c,0\n", 2, id="interrelations-id"),
            pytest.param("--candidates", "c1,c2,r,verdict\n1.05.01,3.²,0.81,impossible\n", 2, id="candidates-id"),
            pytest.param("--correlations", "id1,id2,r\n1.01,3.²,0.5\n", 2, id="correlations-id"),
            pytest.param("--correlations", "id1,id2,r\n1.01,1.05.01,-1.2\n", 2, id="correlations-r-beyond-one"),
            pytest.param("--candidates", "c1,c2,r,verdict\n1.05.01,1.05.02,-3.0,impossible\n", 2, id="candidates-r-beyond-one"),
            pytest.param(
                "--interrelations",
                "row_id,col_id,relation,manufacturing\n1.01,1.05.01,c,0\n1.01,1.05.01,a,0\n",
                3,
                id="interrelations-duplicate-cell",
            ),
            pytest.param("--catalog", "id,name,category,posture,laterality\n1.01,Sitting\n", 2, id="catalog-short"),
            pytest.param("--catalog", "id,name,category,posture,laterality\n1.01,Sitting,upstream,lying,n/a\n", 2, id="catalog-enum"),
            pytest.param(
                "--catalog",
                "id,name,category,posture,laterality\n1.01,Sitting,upstream,sitting,n/a\n"
                "1.02,Standing,upstream,standing,n/a\n1.01,Seated,upstream,sitting,n/a\n",
                4,
                id="catalog-duplicate-id",
            ),
            pytest.param(
                "--interrelations",
                "row_id,col_id,relation,manufacturing\n1.01,1.05.01,c," + "0" * (128 * 1024 + 1) + "\n",
                2,
                id="interrelations-field-over-csv-limit",
            ),
        ],
    )
    def test_malformed_table_data_error(self, runner, tmp_path, flag, text, line):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        result = runner.invoke(main, ["build-graph", flag, str(bad)])
        assert result.exit_code == EXIT_DATA, result.output
        assert "error:" in result.stderr
        assert f"error: line {line}: " in result.stderr

    def test_repeated_correlation_pair_data_error(self, runner, tmp_path):
        # the reference table with its first pair given again, reversed and weak
        with open(fixture_path("reference_correlations.csv"), encoding="utf-8") as handle:
            text = handle.read()
        doubled = tmp_path / "corr.csv"
        doubled.write_text(text + "1.05.01,1.01,0.1\n")
        result = runner.invoke(main, ["build-graph", "--correlations", str(doubled)])
        assert result.exit_code == EXIT_DATA, result.output
        assert "duplicate correlation pair 1.05.01, 1.01 (first on line 2)" in result.stderr

    @pytest.mark.parametrize("width", ["short", "long"])
    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--catalog", "capabilities.csv"),
            ("--interrelations", "interrelations.csv"),
            ("--candidates", "strong_candidates.csv"),
            ("--correlations", "reference_correlations.csv"),
        ],
    )
    def test_row_of_wrong_width_data_error(self, runner, tmp_path, flag, name, width):
        with open(fixture_path(name), encoding="utf-8") as handle:
            header, first, *rest = handle.read().splitlines()
        first = first.rsplit(",", 1)[0] if width == "short" else first + ",1"
        bad = tmp_path / name
        bad.write_text("\n".join([header, first, *rest]) + "\n")
        result = runner.invoke(main, ["build-graph", flag, str(bad)])
        assert result.exit_code == EXIT_DATA, result.output
        assert "error: line 2:" in result.stderr
        assert "cells" in result.stderr

    def test_unwritable_output_path_data_error(self, runner, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        result = runner.invoke(main, ["build-graph", "--out-graph", str(blocker / "g.json")])
        assert result.exit_code == EXIT_DATA, repr(result.exception)
        assert "error:" in result.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_correlation_data_error(self, runner, tmp_path, value):
        with open(fixture_path("reference_correlations.csv"), encoding="utf-8") as handle:
            header, first, *rest = handle.read().splitlines()
        bad = tmp_path / "corr.csv"
        bad.write_text("\n".join([header, first.rsplit(",", 1)[0] + "," + value, *rest]) + "\n")
        out = tmp_path / "graph.json"
        result = runner.invoke(main, ["build-graph", "--correlations", str(bad), "--out-graph", str(out)])
        assert result.exit_code == EXIT_DATA, result.output
        assert "line 2" in result.output
        assert not out.exists()


class TestSynthesize:
    def test_small_bounds_run(self, runner, graph_artifact, tmp_path):
        out = tmp_path / "seq.csv"
        result = runner.invoke(
            main,
            [
                "synthesize",
                "--graph",
                str(graph_artifact),
                "--p-max",
                "1",
                "--p-hat-max",
                "2",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "selected sequences:" in result.output
        assert out.read_text().startswith("sequence_id,trivial_name,steps")

    def test_infeasible_names_node(self, runner, graph_artifact, tmp_path, monkeypatch):
        # without the repair pair, 3.01.03 sits on no path of length >= 4
        norepair = CliRunner().invoke(main, ["build-graph", "--no-repair"])
        assert norepair.exit_code == 0
        monkeypatch.chdir(tmp_path)
        build = CliRunner().invoke(
            main, ["build-graph", "--no-repair", "--out-graph", "g.json"]
        )
        assert build.exit_code == 0
        result = CliRunner().invoke(main, ["synthesize", "--graph", "g.json"])
        assert result.exit_code == EXIT_INFEASIBLE
        assert "3.01.03" in result.output or "3.01.03" in (result.stderr or "")

    @pytest.mark.parametrize("n_min", ["0", "-1"])
    def test_n_min_below_one_usage_error(self, runner, graph_artifact, n_min):
        result = runner.invoke(main, ["synthesize", "--graph", str(graph_artifact), "--n-min", n_min])
        assert result.exit_code == EXIT_USAGE, repr(result.exception)

    def test_n_min_beyond_any_path_names_binding_nodes(self, runner, graph_artifact, sitting_set):
        # no path has 2^62 nodes, so every node binds; the path DP must not size itself by n_min
        result = runner.invoke(main, ["synthesize", "--graph", str(graph_artifact), "--n-min", str(2**62)])
        assert result.exit_code == EXIT_INFEASIBLE, repr(result.exception)
        assert f"binding nodes: {', '.join(map(str, sorted(sitting_set)))}\n" in result.output


class TestGraphDocument:
    @pytest.mark.parametrize("command", ["synthesize", "allocate"])
    @pytest.mark.parametrize(
        "text", ["{bad", "[]", '{"edges": []}'], ids=["not-json", "not-object", "no-nodes"]
    )
    def test_malformed_graph_data_error(self, runner, tmp_path, command, text):
        bad = tmp_path / "g.json"
        bad.write_text(text)
        args = ["synthesize", "--graph", str(bad)]
        if command == "allocate":
            args = [
                "allocate",
                "--requirements",
                fixture_path("demo_requirements.csv"),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(bad),
            ]
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_DATA, result.output
        assert "error:" in result.output


class TestAnalyze:
    def test_pipeline_smoke(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        gen = runner.invoke(
            main, ["gen-data", "--count", "120", "--seed", "3", "--out", str(data)]
        )
        assert gen.exit_code == 0
        corr = tmp_path / "corr.csv"
        result = runner.invoke(
            main,
            ["analyze", "--data", str(data), "--resamples", "99", "--out-corr", str(corr)],
        )
        assert result.exit_code == 0, result.output
        assert "retained" in result.output
        assert corr.read_text().startswith("id,")

    def test_retained_count_matches_oracle(self, runner, tmp_path):
        from capnet import profiles as profiles_mod
        from capnet import taxonomy
        from oracles import population_std_two_pass

        data = tmp_path / "data.csv"
        runner.invoke(main, ["gen-data", "--count", "150", "--seed", "9", "--out", str(data)])
        result = runner.invoke(main, ["analyze", "--data", str(data), "--resamples", "9"])
        catalog = taxonomy.load_default_catalog()
        ids = taxonomy.sitting_over_table_set(catalog)
        dataset = profiles_mod.load_dataset(data, catalog).with_phase(profiles_mod.Phase.POST_REHAB)
        expected = sum(
            1
            for p in dataset
            if all(cap in p.values for cap in ids)
            and population_std_two_pass([p.values[cap] for cap in ids]) >= 0.2
        )
        assert f"retained {expected} of {len(dataset)} profiles" in result.output

    def test_constant_dataset_errors(self, runner, tmp_path):
        from capnet import taxonomy

        ids = taxonomy.sitting_over_table_set(taxonomy.load_default_catalog())
        header = "agent_id,phase," + ",".join(str(c) for c in ids)
        row = "a,post_rehab," + ",".join("3" for _ in ids)
        data = tmp_path / "flat.csv"
        data.write_text(header + "\n" + row + "\n")
        result = runner.invoke(main, ["analyze", "--data", str(data)])
        assert result.exit_code == EXIT_DATA

    def test_catalog_without_sitting_over_table_ids_data_error(self, runner, tmp_path):
        # with no id to filter over, the filter refuses the empty set: one error line, no numpy warning
        catalog, data = tmp_path / "catalog.csv", tmp_path / "data.csv"
        catalog.write_text(
            "id,name,category,posture,laterality\n1.01,Sitting,upstream,sitting,n/a\n"
            "1.05.03,Standing - Bent Posture,over_table,standing,n/a\n"
        )
        data.write_text("agent_id,phase,1.01,1.05.03\na,post_rehab,3,4\nb,post_rehab,5,2\n")
        result = runner.invoke(main, ["analyze", "--data", str(data), "--catalog", str(catalog), "--resamples", "9"])
        assert result.exit_code == EXIT_DATA, result.output
        assert (result.stdout, result.stderr) == ("", "error: the capability set to filter over is empty\n")

    def test_constant_column_reported_undefined(self, runner, tmp_path):
        from capnet import taxonomy

        ids = [str(c) for c in taxonomy.sitting_over_table_set(taxonomy.load_default_catalog())]
        rows = [[3 if j == 0 else (i + j) % 7 for j in range(len(ids))] for i in range(5)]  # ids[0] is 3 throughout
        data = tmp_path / "data.csv"
        data.write_text(
            "agent_id,phase," + ",".join(ids) + "\n"
            + "".join(f"a{i},post_rehab," + ",".join(map(str, row)) + "\n" for i, row in enumerate(rows))
        )
        corr, pvalues = tmp_path / "corr.csv", tmp_path / "pvalues.csv"
        result = runner.invoke(
            main,
            ["analyze", "--data", str(data), "--resamples", "9", "--out-corr", str(corr), "--out-pvalues", str(pvalues)],
        )
        assert result.exit_code == 0, result.output
        assert result.output == f"retained 5 of 5 profiles\nundefined (constant) columns: {ids[0]}\n"
        tables = {path.name: list(csv.reader(path.read_text().splitlines())) for path in (corr, pvalues)}
        for header, *lines in tables.values():
            assert header == ["id", *ids]
            assert lines[0] == [ids[0]] + [""] * len(ids)
            assert [line[1] for line in lines] == [""] * len(ids)
        assert all(all(line[2:]) for line in tables["corr.csv"][2:])  # every other column is defined

    def test_non_integer_cell_data_error(self, runner, tmp_path):
        from capnet import taxonomy

        ids = taxonomy.sitting_over_table_set(taxonomy.load_default_catalog())
        header = "agent_id,phase," + ",".join(str(c) for c in ids)
        row = "a,post_rehab,x," + ",".join("3" for _ in ids[1:])
        data = tmp_path / "bad.csv"
        data.write_text(header + "\n" + row + "\n")
        result = runner.invoke(main, ["analyze", "--data", str(data)])
        assert result.exit_code == EXIT_DATA, result.output
        assert "error:" in result.output
        # A header that names one id twice is as malformed as a bad cell.
        data.write_text(header + f",{ids[-1]}\n" + "a,post_rehab," + ",".join("3" for _ in ids) + ",4\n")
        result = runner.invoke(main, ["analyze", "--data", str(data)])
        assert result.exit_code == EXIT_DATA, result.output
        assert f"error: capability id {ids[-1]} repeats" in result.output

    def test_resamples_below_one_usage_error(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        runner.invoke(main, ["gen-data", "--count", "20", "--seed", "5", "--out", str(data)])
        result = runner.invoke(
            main, ["analyze", "--data", str(data), "--resamples", "0", "--out-pvalues", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == EXIT_USAGE, result.output

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_usage_error(self, runner, tmp_path, seed):
        data = tmp_path / "data.csv"
        runner.invoke(main, ["gen-data", "--count", "20", "--seed", "5", "--out", str(data)])
        result = runner.invoke(
            main, ["analyze", "--data", str(data), "--seed", seed, "--out-pvalues", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == EXIT_USAGE, result.output
        assert "retained" not in result.output
        assert not (tmp_path / "p.csv").exists()

    def test_gen_data_negative_seed_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-data", "--seed", "-1", "--out", str(tmp_path / "d.csv")])
        assert result.exit_code == EXIT_USAGE, result.output
        assert not (tmp_path / "d.csv").exists()

    def test_profile_matrix_built_once(self, runner, tmp_path, monkeypatch):
        # analyze builds one matrix, from the score rows, hands that array to both tables and
        # constructs no Profile; the tables do not lay the rows out again with ScoreTable.matrix
        from capnet import profiles, stats

        built, tables, made = [], [], []
        data = tmp_path / "data.csv"
        runner.invoke(main, ["gen-data", "--count", "40", "--seed", "5", "--out", str(data)])
        retained, post_init = profiles.ScoreTable.retained, profiles.Profile.__post_init__
        monkeypatch.setattr(profiles.ScoreTable, "retained", lambda *a: built.append(retained(*a)) or built[-1])
        monkeypatch.setattr(profiles.ScoreTable, "matrix", lambda *a: built.append("matrix"))
        monkeypatch.setattr(profiles.Profile, "__post_init__", lambda self: made.append(self) or post_init(self))
        for name in ("correlation_matrix", "pairwise_permutation_pvalues"):
            real = getattr(stats, name)
            monkeypatch.setattr(stats, name, lambda data, *a, real=real: tables.append(data) or real(data, *a))
        result = runner.invoke(
            main,
            ["analyze", "--data", str(data), "--resamples", "9",
             "--out-corr", str(tmp_path / "c.csv"), "--out-pvalues", str(tmp_path / "p.csv")],
        )
        assert result.exit_code == 0, result.output
        assert len(built) == 1 and len(tables) == 2
        assert all(matrix is built[0] for matrix in tables)
        assert made == []

    def test_zero_threshold_keeps_complete_profiles(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        runner.invoke(main, ["gen-data", "--count", "40", "--seed", "5", "--out", str(data)])
        result = runner.invoke(
            main, ["analyze", "--data", str(data), "--threshold", "0", "--resamples", "9"]
        )
        assert result.exit_code == 0
        # every complete post-rehab profile is retained
        from capnet import profiles as profiles_mod
        from capnet import taxonomy

        catalog = taxonomy.load_default_catalog()
        ids = taxonomy.sitting_over_table_set(catalog)
        dataset = profiles_mod.load_dataset(data, catalog).with_phase(profiles_mod.Phase.POST_REHAB)
        complete = sum(1 for p in dataset if all(cap in p.values for cap in ids))
        assert f"retained {complete} of" in result.output

    def test_nan_threshold_usage_error(self, runner, tmp_path):
        data = tmp_path / "data.csv"
        runner.invoke(main, ["gen-data", "--count", "40", "--seed", "5", "--out", str(data)])
        result = runner.invoke(main, ["analyze", "--data", str(data), "--threshold", "nan", "--resamples", "9"])
        assert result.exit_code == EXIT_USAGE, result.output
        assert "threshold must be non-negative, got nan" in result.output


class TestAllocate:
    def test_demo_feasible_after_compensation(self, runner, graph_artifact):
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                fixture_path("demo_requirements.csv"),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "feasible_after_compensation" in result.output
        assert result.output.count("shift") == 1

    def test_agent_with_two_phases_needs_phase(self, runner, graph_artifact, tmp_path):
        data = tmp_path / "data.csv"
        assert runner.invoke(main, ["gen-data", "--count", "3", "--out", str(data)]).exit_code == 0
        args = [
            "allocate",
            "--requirements",
            fixture_path("demo_requirements.csv"),
            "--profiles",
            str(data),
            "--agent",
            "A00001",
            "--graph",
            str(graph_artifact),
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_USAGE, result.output
        assert "agent 'A00001' has profiles for phases pre_rehab, post_rehab" in result.stderr
        result = runner.invoke(main, [*args, "--phase", "post_rehab"])
        assert result.exit_code != EXIT_USAGE, result.output

    @pytest.mark.parametrize("phase", [None, "post_rehab"])
    def test_unknown_agent_data_error(self, runner, graph_artifact, tmp_path, phase):
        data = tmp_path / "data.csv"
        assert runner.invoke(main, ["gen-data", "--count", "3", "--out", str(data)]).exit_code == 0
        args = ["allocate", "--requirements", fixture_path("demo_requirements.csv"), "--profiles", str(data),
                "--agent", "X", "--graph", str(graph_artifact)]
        result = runner.invoke(main, args + (["--phase", phase] if phase else []))
        assert result.exit_code == EXIT_DATA, result.output
        assert (result.stdout, result.stderr) == ("", "error: no profile for agent 'X'" + (f" phase {phase}" if phase else "") + "\n")

    def test_builds_the_chosen_row_profile_only(self, runner, graph_artifact, tmp_path, monkeypatch):
        # of a 1,040-row file, allocate builds the selected row's Profile and propagate_main_level's
        from capnet import profiles

        data = tmp_path / "data.csv"
        assert runner.invoke(main, ["gen-data", "--count", "520", "--seed", "1", "--out", str(data)]).exit_code == 0
        made, post_init = [], profiles.Profile.__post_init__
        monkeypatch.setattr(profiles.Profile, "__post_init__", lambda self: made.append(self) or post_init(self))
        result = runner.invoke(
            main,
            ["allocate", "--requirements", fixture_path("demo_requirements.csv"), "--profiles", str(data),
             "--agent", "A00007", "--phase", "post_rehab", "--graph", str(graph_artifact)],
        )
        assert result.exit_code in (0, EXIT_INFEASIBLE), result.output
        assert 1 <= len(made) <= 2 and {(p.agent_id, p.phase) for p in made} == {("A00007", profiles.Phase.POST_REHAB)}

    def test_slack_options_and_trace(self, runner, graph_artifact, tmp_path):
        from capnet import deltas, profiles, taxonomy

        args = [
            "allocate",
            "--requirements",
            fixture_path("demo_requirements.csv"),
            "--profiles",
            fixture_path("demo_profile.csv"),
            "--agent",
            "demo",
            "--graph",
            str(graph_artifact),
            "--xi",
            "3.03.04=1",
            "--theta",
            "1",
        ]
        first, second = tmp_path / "t.json", tmp_path / "again.json"
        result = runner.invoke(main, [*args, "--out-trace", str(first)])
        assert result.exit_code == 0, result.output
        assert result.output == "outcome: feasible_direct\n"  # the slack absorbs the demo's one-unit deficit
        assert runner.invoke(main, [*args, "--out-trace", str(second)]).exit_code == 0
        assert first.read_bytes() == second.read_bytes()

        with open(fixture_path("demo_requirements.csv"), newline="", encoding="utf-8") as handle:
            levels = {taxonomy.parse_capability_id(row["id"]): int(row["level"]) for row in csv.DictReader(handle)}
        profile = profiles.load_dataset(fixture_path("demo_profile.csv"), taxonomy.load_default_catalog()).select("demo", None)
        trace = deltas.compensate(
            profiles.RequirementSet("demo", levels),
            profiles.propagate_main_level(profile),
            network.import_graph(graph_artifact.read_text(encoding="utf-8")),
            deltas.FuzzyParams(xi={taxonomy.parse_capability_id("3.03.04"): 1}, theta=1),
        )
        assert first.read_text(encoding="utf-8") == trace.to_document()

    def test_satisfied_profile_direct(self, runner, graph_artifact, tmp_path):
        profile = tmp_path / "p.csv"
        profile.write_text("agent_id,phase,3.02.03,3.03.04\nok,unspecified,6,6\n")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                fixture_path("demo_requirements.csv"),
                "--profiles",
                str(profile),
                "--agent",
                "ok",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == 0
        assert "feasible_direct" in result.output

    def test_infeasible_exit_code(self, runner, graph_artifact, tmp_path):
        profile = tmp_path / "p.csv"
        profile.write_text("agent_id,phase,3.02.03,3.03.04\nweak,unspecified,0,0\n")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                fixture_path("demo_requirements.csv"),
                "--profiles",
                str(profile),
                "--agent",
                "weak",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == EXIT_INFEASIBLE
        assert "infeasible" in result.output

    def test_empty_requirements_direct(self, runner, graph_artifact, tmp_path):
        reqs = tmp_path / "r.csv"
        reqs.write_text("id,level\n")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                str(reqs),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == 0
        assert "feasible_direct" in result.output
        assert "shift" not in result.output

    @pytest.mark.parametrize(
        "option",
        [
            ["--theta", "-1"],
            ["--theta", "99"],
            ["--xi", "3.03.04"],
            ["--xi", "3.03.04=x"],
            ["--xi", "bogus=1"],
            ["--xi", "3.03.04=9"],
            ["--xi", "3.03.04=１"],
            ["--xi", "3.03.04=1", "--xi", "3.03.04=2"],
        ],
        ids=["theta-negative", "theta-above-cap", "xi-no-value", "xi-non-integer", "xi-bad-id", "xi-above-scale", "xi-fullwidth", "xi-repeated"],
    )
    def test_bad_slack_option_usage_error(self, runner, graph_artifact, option):
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                fixture_path("demo_requirements.csv"),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
                *option,
            ],
        )
        assert result.exit_code == EXIT_USAGE, result.output
        assert option[-1] in result.stderr  # the message names the offending value

    @pytest.mark.parametrize(
        "text",
        [
            "id,level\n3.03.04\n",
            "id,level\n3.03.04,6,99\n",
            "id,level\n3.03.04,high\n",
            "id,level\n3.03.04,５\n",
            "id,level\n3.03.04,9\n",
        ],
        ids=["short", "long", "non-integer", "fullwidth", "outside-scale"],
    )
    def test_bad_requirement_row_data_error(self, runner, graph_artifact, tmp_path, text):
        reqs = tmp_path / "r.csv"
        reqs.write_text(text)
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                str(reqs),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == EXIT_DATA, result.output
        assert "line 2" in result.output

    def test_fullwidth_profile_score_data_error(self, runner, graph_artifact, tmp_path):
        # int() reads "５" as 5; a data file must spell scores in ASCII digits
        data = tmp_path / "p.csv"
        data.write_text("agent_id,phase,3.02.03,3.03.04\ndemo,unspecified,５,4\n", encoding="utf-8")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                fixture_path("demo_requirements.csv"),
                "--profiles",
                str(data),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == EXIT_DATA, result.output
        assert "'５' is not a non-negative decimal number" in result.stderr

    def test_repeated_requirement_id_data_error(self, runner, graph_artifact, tmp_path):
        reqs = tmp_path / "r.csv"
        reqs.write_text("id,level\n3.03.04,6\n3.02.03,2\n3.3.4,1\n")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                str(reqs),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == EXIT_DATA, result.output
        assert "line 4" in result.output
        assert "3.03.04" in result.output

    def test_non_ascii_digit_requirement_id_data_error(self, runner, graph_artifact, tmp_path):
        reqs = tmp_path / "r.csv"
        reqs.write_text("id,level\n3.²,6\n", encoding="utf-8")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                str(reqs),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == EXIT_DATA, result.output
        assert "error:" in result.stderr

    def test_unknown_requirement_id_data_error(self, runner, graph_artifact, tmp_path):
        reqs = tmp_path / "r.csv"
        reqs.write_text("id,level\n3.03.04,6\n9.99.99,2\n")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                str(reqs),
                "--profiles",
                fixture_path("demo_profile.csv"),
                "--agent",
                "demo",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == EXIT_DATA, result.output
        assert "unknown capability ids 9.99.99" in result.output

    def test_incomplete_profile_lists_missing(self, runner, graph_artifact, tmp_path):
        profile = tmp_path / "p.csv"
        profile.write_text("agent_id,phase,3.02.03\npartial,unspecified,5\n")
        result = runner.invoke(
            main,
            [
                "allocate",
                "--requirements",
                fixture_path("demo_requirements.csv"),
                "--profiles",
                str(profile),
                "--agent",
                "partial",
                "--graph",
                str(graph_artifact),
            ],
        )
        assert result.exit_code == EXIT_DATA
        assert "3.03.04" in result.output


class TestOutputsAllOrNothing:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("data") / "data.csv"
        result = CliRunner().invoke(main, ["gen-data", "--count", "40", "--seed", "2", "--out", str(path)])
        assert result.exit_code == 0, result.output
        return path

    TWO_OUTPUTS = [("build-graph", "--out-graph", "--out-dot"), ("analyze", "--out-corr", "--out-pvalues")]

    @staticmethod
    def _args(command, dataset):
        return [command] if command == "build-graph" else [command, "--data", str(dataset), "--resamples", "9"]

    @pytest.mark.parametrize("command, first, second", TWO_OUTPUTS)
    def test_unwritable_second_output_writes_neither(self, runner, tmp_path, dataset, command, first, second):
        args = self._args(command, dataset)
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "dir").mkdir()
        old = tmp_path / "old.txt"
        old.write_text("old artifact")
        for target in (tmp_path / "new.txt", old):
            for unwritable in (blocker / "x.txt", tmp_path / "dir"):
                result = runner.invoke(main, [*args, first, str(target), second, str(unwritable)])
                assert result.exit_code == EXIT_DATA, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file", "old.txt"]
        assert not any((tmp_path / "dir").iterdir())
        assert old.read_text() == "old artifact"

    @pytest.mark.parametrize("command, first, second", TWO_OUTPUTS)
    def test_one_path_for_two_outputs_usage_error(self, runner, tmp_path, dataset, command, first, second):
        target = tmp_path / "out.txt"
        same = tmp_path / "sub" / ".." / "out.txt"
        result = runner.invoke(main, [*self._args(command, dataset), first, str(target), second, str(same)])
        assert result.exit_code == EXIT_USAGE, result.output
        assert "error:" in result.stderr
        assert not target.exists()

    def test_output_through_symlink_keeps_link(self, runner, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("old artifact")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        result = runner.invoke(main, ["build-graph", "--out-graph", str(link)])
        assert result.exit_code == 0, result.output
        assert link.is_symlink()
        assert network.import_graph(real.read_text()).nodes


@pytest.mark.parametrize(
    "args, named",
    [
        pytest.param(["build-graph", "--thresh", "0.5"], "--thresh", id="build-graph-abbreviated-option"),
        pytest.param(["analyze", "--data", "{data}", "--resample", "5"], "--resample", id="analyze-abbreviated-option"),
        pytest.param(["analyze", "--data", "{data}", "--phase", "during"], "during", id="analyze-unknown-phase"),
        pytest.param(
            ["allocate", "--requirements", fixture_path("demo_requirements.csv"), "--profiles", fixture_path("demo_profile.csv"),
             "--agent", "demo", "--graph", "{graph}", "--phase", "during"],
            "during",
            id="allocate-unknown-phase",
        ),
        pytest.param(["synthesize"], "--graph", id="synthesize-without-graph"),
        pytest.param([], "COMMAND", id="no-subcommand"),
    ],
)
def test_malformed_command_line_usage_error(runner, graph_artifact, tmp_path, args, named):
    """A prefix of an option, an unknown choice or a missing option or command is a usage error."""
    data = tmp_path / "data.csv"
    assert runner.invoke(main, ["gen-data", "--count", "20", "--seed", "5", "--out", str(data)]).exit_code == 0
    result = runner.invoke(main, [arg.format(data=data, graph=graph_artifact) for arg in args])
    assert result.exit_code == EXIT_USAGE, result.output
    assert named in result.stderr
    assert result.stdout == ""


# sha256 of each artifact, and of build-graph's stdout, on the default
# fixtures and on one generated dataset. Accept a new digest only together
# with a declared change of that artifact. The synthesized plan is not
# pinned: past the lexicographic limit it is HiGHS's optimum, which depends
# on the HiGHS version.
GOLDEN_ARTIFACT_SHA256 = {
    "graph.json": "e56e8533933c9dbaa88fabf6b5f380bbdb06279f4d21383265e172c8a25727c9",
    "graph.dot": "8de136ef57ebfd5c559e5dba11fceba35e118608f32b667673e2f63eccc3099b",
    "build-graph stdout": "73421d02df12e97f51b7be1d10c2991913ab8962cac2155f22c30f50fe721eaf",
    "corr.csv": "f88eb2a5785ebbf113372122e62fe288e22c304bdc8e7bccf5e3f77460701d53",
    "pvalues.csv": "5bfdc3e52e84d4fc9537192c7bd79bf95c3204c6ecb2589b6e9693fc115d590d",
}


def test_golden_artifact_digests(runner, tmp_path, monkeypatch):
    commands = [
        ["build-graph", "--out-graph", "graph.json", "--out-dot", "graph.dot"],
        ["gen-data", "--count", "260", "--seed", "4", "--out", "data.csv"],
        ["analyze", "--data", "data.csv", "--seed", "7", "--resamples", "1000", "--out-corr", "corr.csv", "--out-pvalues", "pvalues.csv"],
    ]
    monkeypatch.chdir(tmp_path)
    results = [runner.invoke(main, args) for args in commands]
    assert [r.exit_code for r in results] == [0, 0, 0], [r.output for r in results]
    texts = {name: (tmp_path / name).read_bytes() for name in ("graph.json", "graph.dot", "corr.csv", "pvalues.csv")}
    texts["build-graph stdout"] = results[0].stdout.encode("utf-8")
    assert {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()} == GOLDEN_ARTIFACT_SHA256


class TestGenData:
    def test_zero_count_header_only(self, runner, tmp_path):
        out = tmp_path / "empty.csv"
        result = runner.invoke(main, ["gen-data", "--count", "0", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("agent_id,phase,")

    def test_same_seed_identical_files(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, ["gen-data", "--count", "30", "--seed", "7", "--out", str(a)])
        runner.invoke(main, ["gen-data", "--count", "30", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["gen-data", "--count", "-2", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2


@pytest.fixture(scope="module")
def fuzz_partners(tmp_path_factory, graph_artifact):
    """Valid files for every option a fuzzed file is not standing in for."""
    workdir = tmp_path_factory.mktemp("fuzz")
    data = workdir / "data.csv"
    result = CliRunner().invoke(main, ["gen-data", "--count", "20", "--seed", "5", "--out", str(data)])
    assert result.exit_code == 0, result.output
    return {"dir": workdir, "graph": str(graph_artifact), "data": str(data)}


_CATALOG_HEADER = b"id,name,category,posture,laterality\n"
_GRAPH_PREFIX = b'{"nodes": [], "edges": ['

# (subcommand, fuzzed option, a valid first line to prefix some inputs with)
_FUZZ_TARGETS = [
    ("build-graph", "--catalog", _CATALOG_HEADER),
    ("build-graph", "--interrelations", b"row_id,col_id,relation,manufacturing\n"),
    ("build-graph", "--candidates", b"c1,c2,r,verdict\n"),
    ("build-graph", "--correlations", b"id1,id2,r\n"),
    ("synthesize", "--graph", _GRAPH_PREFIX),
    ("analyze", "--data", b"agent_id,phase,1.05.01,1.05.02\n"),
    ("analyze", "--catalog", _CATALOG_HEADER),
    ("allocate", "--requirements", b"id,level\n"),
    ("allocate", "--profiles", b"agent_id,phase,3.02.03,3.03.04\n"),
    ("allocate", "--graph", _GRAPH_PREFIX),
]

_fuzz_tails = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.,;\"\n -acdrz_", max_size=200).map(str.encode),
)


@pytest.mark.parametrize("command, option, first_line", _FUZZ_TARGETS, ids=[f"{c}{o}" for c, o, _ in _FUZZ_TARGETS])
@settings(
    derandomize=True,
    max_examples=50,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(prefixed=st.booleans(), tail=_fuzz_tails)
@example(prefixed=False, tail=b"\xff\xfe")
@example(prefixed=True, tail=b"0" * (128 * 1024 + 1))  # one CSV field over csv's size limit
def test_arbitrary_file_bytes_never_crash(fuzz_partners, command, option, first_line, prefixed, tail):
    """Any file content ends in success or a documented exit code, never a traceback."""
    fuzzed = fuzz_partners["dir"] / "fuzzed"
    fuzzed.write_bytes((first_line if prefixed else b"") + tail)
    base = {
        "build-graph": ["build-graph"],
        "synthesize": ["synthesize", "--graph", fuzz_partners["graph"]],
        "analyze": ["analyze", "--data", fuzz_partners["data"], "--resamples", "9"],
        "allocate": [
            "allocate",
            "--requirements",
            fixture_path("demo_requirements.csv"),
            "--profiles",
            fixture_path("demo_profile.csv"),
            "--agent",
            "demo",
            "--graph",
            fuzz_partners["graph"],
        ],
    }[command]
    # a repeated option takes its last value, so the fuzzed file replaces the partner
    result = CliRunner().invoke(main, base + [option, str(fuzzed)])
    assert result.exit_code in (0, EXIT_USAGE, EXIT_DATA, EXIT_INFEASIBLE), (result.output, repr(result.exception))


# Runs every subcommand in one fresh interpreter and lists, after each, the scipy, click and numpy
# modules loaded. allocate runs before gen-data, the first command that needs numpy.
LAZY_SOLVER_SCRIPT = """
import json, sys
from importlib import resources
from capnet import cli

def fixture(name):
    return str(resources.files("capnet.fixtures").joinpath(name))

def modules(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

steps = [["import", 0, modules("scipy"), modules("click"), modules("numpy")]]
def run(*args):
    code = cli.main(list(args), standalone_mode=False)
    steps.append([args[0], code or 0, modules("scipy"), modules("click"), modules("numpy")])

run("build-graph", "--out-graph", "graph.json")
run("allocate", "--requirements", fixture("demo_requirements.csv"), "--profiles", fixture("demo_profile.csv"),
    "--agent", "demo", "--graph", "graph.json")
run("gen-data", "--count", "40", "--seed", "1", "--out", "data.csv")
run("analyze", "--data", "data.csv", "--resamples", "99", "--out-corr", "corr.csv", "--out-pvalues", "p.csv")
run("synthesize", "--graph", "graph.json", "--out", "plan.csv")
print(json.dumps(steps))
"""


def test_only_synthesize_loads_the_solvers(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", LAZY_SOLVER_SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert [step[:2] for step in steps] == [[name, 0] for name in ("import", "build-graph", "allocate", "gen-data", "analyze", "synthesize")]
    assert all(scipy == [] for _, _, scipy, _, _ in steps[:-1]), steps
    assert {"scipy.optimize", "scipy.sparse"} <= set(steps[-1][2])
    assert all(click == [] for _, _, _, click, _ in steps), steps
    # the import, build-graph and allocate start without numpy; gen-data loads it
    assert all(numpy == [] for _, _, _, _, numpy in steps[:3]), steps
    assert "numpy" in steps[3][4]
