import csv
import hashlib
import random

import numpy as np
import pytest

from capnet import profiles
from capnet.cli import EXIT_DATA, main
from capnet.errors import ConfigError, DatasetError, QuantificationError
from capnet.profiles import (
    GeneratorConfig,
    Phase,
    Profile,
    RequirementSet,
    ScoreTable,
    filter_profiles,
    generate_synthetic_profiles,
    load_dataset,
    propagate_main_level,
    read_dataset,
    write_dataset,
)
from capnet.taxonomy import parse_capability_id as pid
from capnet.taxonomy import parse_score

from oracles import population_std_two_pass


def make_profile(values, agent="a1", phase=Phase.UNSPECIFIED):
    return Profile(agent_id=agent, phase=phase, values={pid(k): v for k, v in values.items()})


def post_rehab_table(ids, rows):
    """A ScoreTable over ``ids`` of post-rehab ``(agent, {id: score})`` rows, -1 where a row lacks an id."""
    ids = tuple(ids)
    scores = tuple(tuple(values.get(cap, -1) for cap in ids) for _, values in rows)
    return ScoreTable(ids, tuple(agent for agent, _ in rows), (Phase.POST_REHAB,) * len(rows), scores)


class TestPropagateMainLevel:
    def test_minimum_over_details(self):
        profile = make_profile({"4.01.01": 5, "4.01.02": 3, "4.01.03": 4, "4.01.04": 4})
        result = propagate_main_level(profile)
        assert result.values[pid("4.01")] == 3
        # detail entries preserved
        assert result.values[pid("4.01.01")] == 5

    def test_singleton(self):
        result = propagate_main_level(make_profile({"3.04.02": 2}))
        assert result.values[pid("3.04")] == 2

    def test_empty(self):
        assert propagate_main_level(make_profile({})).values == {}

    def test_idempotent(self):
        profile = make_profile({"4.01.01": 5, "4.01.02": 3, "3.04.02": 2})
        once = propagate_main_level(profile)
        twice = propagate_main_level(once)
        assert once == twice

    def test_existing_main_entry_untouched(self):
        profile = make_profile({"4.01": 6, "4.01.01": 2})
        assert propagate_main_level(profile).values[pid("4.01")] == 6


class TestFilterProfiles:
    def test_constant_profile_dropped(self, sitting_set):
        dataset = post_rehab_table(sitting_set, [("a", {cap: 3 for cap in sitting_set})])
        assert len(filter_profiles(dataset, sitting_set, 0.2)) == 0

    def test_incomplete_profile_dropped(self, sitting_set):
        values = {cap: 3 for cap in sitting_set if str(cap) != "3.03.04"}
        values[pid("1.05.01")] = 5
        dataset = post_rehab_table(sitting_set, [("a", values)])
        assert len(filter_profiles(dataset, sitting_set, 0.2)) == 0

    def test_zero_threshold_keeps_complete(self, sitting_set):
        dataset = post_rehab_table(sitting_set, [("a", {cap: 3 for cap in sitting_set})])
        assert len(filter_profiles(dataset, sitting_set, 0.0)) == 1

    def test_against_brute_force_refilter(self, sitting_set):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=520)
        dataset = generate_synthetic_profiles(config, seed=5).with_phase(Phase.POST_REHAB)
        kept = filter_profiles(dataset, sitting_set, 0.2)
        expected = [
            p
            for p in dataset
            if all(cap in p.values for cap in sitting_set)
            and population_std_two_pass([p.values[cap] for cap in sitting_set]) >= 0.2
        ]
        assert list(kept) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_per_profile_rule(self, sitting_set, seed):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=200, degenerate_fraction=0.3)
        dataset = generate_synthetic_profiles(config, seed=seed)
        spreads = [
            (p, np.std([p.values[cap] for cap in sitting_set])) for p in dataset if not p.missing_from(sitting_set)
        ]
        assert len(spreads) < len(dataset) and any(spread == 0.0 for _, spread in spreads)
        stds = sorted({spread for _, spread in spreads})
        for threshold in (0.0, 0.2, *stds[1::7]):  # also exactly at profiles' stds
            kept = filter_profiles(dataset, sitting_set, threshold)
            assert list(kept) == [p for p, spread in spreads if spread >= threshold]

    def test_empty_dataset(self, sitting_set):
        assert len(filter_profiles(post_rehab_table(sitting_set, []), sitting_set, 0.2)) == 0

    @pytest.mark.parametrize("threshold", [0.0, 0.2])
    @pytest.mark.parametrize("rows", [0, 2])
    def test_empty_capability_set_rejected(self, sitting_set, threshold, rows):
        # no row has a spread over no id, so the filter refuses the set rather than keep nothing
        spread = {cap: (i % 7) for i, cap in enumerate(sitting_set)}
        dataset = post_rehab_table(sitting_set, [("a", spread), ("b", spread)][:rows])
        for keep in (lambda s: filter_profiles(dataset, s, threshold), lambda s: dataset.retained(s, threshold)):
            with pytest.raises(DatasetError, match="^the capability set to filter over is empty$"):
                keep([])
        assert dataset.matrix(()).shape == (rows, 0)

    def test_order_preserved(self, sitting_set):
        spread = {cap: (i % 7) for i, cap in enumerate(sitting_set)}
        kept = filter_profiles(post_rehab_table(sitting_set, [("a", spread), ("b", spread)]), sitting_set, 0.2)
        assert [p.agent_id for p in kept] == ["a", "b"]


GOLDEN_DATASET_SHA256 = "2ea420e71443820cfc68a44d83a1c822464ac2f55899dfc90dae2d58ad254173"


class TestGenerator:
    def test_zero_agents(self, sitting_set):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=0)
        assert len(generate_synthetic_profiles(config, seed=1)) == 0

    def test_determinism(self, sitting_set):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=40)
        a = generate_synthetic_profiles(config, seed=11)
        b = generate_synthetic_profiles(config, seed=11)
        assert a == b
        assert write_dataset(a) == write_dataset(b)

    def test_seed_changes_output(self, sitting_set):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=40)
        a = generate_synthetic_profiles(config, seed=11)
        b = generate_synthetic_profiles(config, seed=12)
        assert a != b

    def test_emits_phase_pairs(self, sitting_set):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=10, degenerate_fraction=0.0)
        dataset = generate_synthetic_profiles(config, seed=3)
        assert len(dataset) == 20
        phases = {p.phase for p in dataset}
        assert phases == {Phase.PRE_REHAB, Phase.POST_REHAB}

    def test_repeated_id_rejected(self, sitting_set):
        # the header written from such a config would repeat the id, which read_dataset refuses
        with pytest.raises(ConfigError, match=r"^id 3\.03\.04 repeats in ids$"):
            GeneratorConfig(ids=(*sitting_set, pid("3.3.4")))

    def test_invalid_config(self, sitting_set):
        with pytest.raises(ConfigError):
            GeneratorConfig(ids=tuple(sitting_set), agents=-1)
        with pytest.raises(ConfigError):
            GeneratorConfig(ids=tuple(sitting_set), within_main_correlation=1.5)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"degenerate_fraction": -0.1}, r"degenerate_fraction must be in \[0, 1\], got -0.1"),
            ({"degenerate_fraction": 1.5}, r"degenerate_fraction must be in \[0, 1\], got 1.5"),
            ({"ids": ()}, "ids must not be empty"),
        ],
    )
    def test_setting_out_of_range_rejected(self, sitting_set, setting, message):
        with pytest.raises(ConfigError, match=message):
            GeneratorConfig(**{"ids": tuple(sitting_set), **setting})

    def test_golden_output_digest(self, sitting_set, catalog):
        # Pins the generator's bytes: any change to its draws, rounding or
        # degenerate handling changes the digest.
        digest = hashlib.sha256()
        for ids in (sitting_set, [entry.id for entry in catalog]):
            for fraction in (0.0, 0.15, 1.0):
                for rho in (0.0, 0.8, 1.0):
                    config = GeneratorConfig(
                        ids=tuple(ids), agents=30, within_main_correlation=rho, degenerate_fraction=fraction
                    )
                    dataset = generate_synthetic_profiles(config, seed=5)
                    digest.update(write_dataset(dataset).encode("utf-8"))
        assert digest.hexdigest() == GOLDEN_DATASET_SHA256

    def test_within_main_correlation_exceeds_cross_complex(self, sitting_set):
        # generator self-check via the stats module
        from capnet.stats import pearson

        config = GeneratorConfig(
            ids=tuple(sitting_set), agents=500, within_main_correlation=0.9, degenerate_fraction=0.0
        )
        dataset = generate_synthetic_profiles(config, seed=17).with_phase(Phase.POST_REHAB)
        col = lambda cap: [p.values[cap] for p in dataset]
        within = pearson(col(pid("3.03.02")), col(pid("3.03.04")))
        cross = pearson(col(pid("1.05.01")), col(pid("5.01.04")))
        assert within > cross
        assert within > 0.5


class TestDatasetFile:
    def test_round_trip(self, sitting_set, catalog, tmp_path):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=25)
        dataset = generate_synthetic_profiles(config, seed=2)
        text = write_dataset(dataset)
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        back = load_dataset(path, catalog)
        assert list(back) == list(dataset)

    @pytest.mark.parametrize("layout", ["canonical", "shuffled"])
    def test_write_reproduces_the_file_read(self, tmp_path, sitting_set, layout):
        # gen-data output, or the same file with its columns shuffled, is written back byte for byte
        path = tmp_path / "data.csv"
        assert main(["gen-data", "--count", "60", "--seed", "3", "--out", str(path)], standalone_mode=False) == 0
        text = path.read_text(encoding="utf-8")
        order = list(range(len(sitting_set)))
        if layout == "shuffled":
            random.Random(3).shuffle(order)
            text = _reorder_columns(text, order)
        table = read_dataset(text.splitlines())
        assert table.ids == tuple(sitting_set[k] for k in order) and any(-1 in row for row in table.scores)
        assert write_dataset(table) == text

    def test_read_leaves_no_cyclic_garbage(self, sitting_set, cyclic_garbage):
        config = GeneratorConfig(ids=tuple(sitting_set), agents=25)
        lines = write_dataset(generate_synthetic_profiles(config, seed=2)).splitlines()
        assert cyclic_garbage(lambda: read_dataset(lines)) == 0

    def test_missing_cells_stay_missing(self):
        lines = ["agent_id,phase,3.02.03,3.03.04", "a,unspecified,,4"]
        dataset = read_dataset(lines)
        (profile,) = dataset
        assert pid("3.02.03") not in profile.values
        assert profile.values[pid("3.03.04")] == 4

    def test_repeated_header_id_rejected(self):
        lines = ["agent_id,phase,3.02.03,3.03.04,3.3.4", "demo,unspecified,5,0,4"]
        with pytest.raises(DatasetError, match="3.03.04 repeats"):
            read_dataset(lines)

    def test_malformed_header_id_rejected(self):
        lines = ["agent_id,phase,3.03.04,3.x", "a,unspecified,4,4"]
        with pytest.raises(DatasetError, match="bad capability id in header: '3.x': main component 'x'"):
            read_dataset(lines)

    @pytest.mark.parametrize("cell", ["4", ""], ids=["assessed", "empty"])
    def test_unknown_header_id_rejected(self, catalog, cell):
        lines = ["agent_id,phase,3.03.04,9.99.99", f"a,unspecified,4,{cell}"]
        with pytest.raises(DatasetError, match="unknown capability ids 9.99.99"):
            read_dataset(lines, catalog)

    @pytest.mark.parametrize("cell", ["５", "0_4", "+4"], ids=["fullwidth", "underscore", "sign"])
    def test_score_outside_ascii_digits_rejected(self, cell):
        lines = ["agent_id,phase,3.02.03,3.03.04", f"demo,unspecified,5,{cell}"]
        with pytest.raises(DatasetError, match="non-integer level for agent 'demo'"):
            read_dataset(lines)

    def test_duplicate_agent_phase_rejected(self):
        lines = [
            "agent_id,phase,3.03.04",
            "a,pre_rehab,4",
            "a,pre_rehab,5",
        ]
        with pytest.raises(DatasetError, match=r"^line 3: duplicate row for agent 'a' phase pre_rehab \(first on line 2\)$"):
            read_dataset(lines)
        # the same agent in another phase is no repeat; a later repeat names both lines
        lines[2:] = ["a,post_rehab,5", "b,pre_rehab,3", "a,post_rehab,6"]
        with pytest.raises(DatasetError, match=r"^line 5: duplicate row for agent 'a' phase post_rehab \(first on line 3\)$"):
            read_dataset(lines)
        # a library caller building the dataset itself meets the same check, without lines
        with pytest.raises(DatasetError, match="^duplicate row for agent 'a' phase pre_rehab$"):
            ScoreTable((), ("a", "b", "a"), (Phase.PRE_REHAB,) * 3, ((), (), ()))

    def test_level_outside_scale_names_line_and_agent(self):
        lines = ["agent_id,phase,3.02.03,3.03.04", "a,pre_rehab,4,5", "b,pre_rehab,9,5"]
        with pytest.raises(DatasetError, match="^line 3: level for agent 'b': quantification 9 outside scale"):
            read_dataset(lines)

    @pytest.mark.parametrize(
        "cells, message",
        [
            ("9,x", "level for agent 'a': quantification 9 outside scale"),
            ("x,9", r"non-integer level for agent 'a': 'x' is not"),
            ("x,y", r"non-integer level for agent 'a': 'x' is not"),
        ],
        ids=["range-then-digits", "digits-then-range", "digits-twice"],
    )
    def test_first_bad_cell_of_a_row_is_named(self, cells, message):
        lines = ["agent_id,phase,3.02.03,3.03.04", "b,pre_rehab,4,5", f"a,pre_rehab,{cells}"]
        with pytest.raises(DatasetError, match=f"^line 3: {message}"):
            read_dataset(lines)

    def test_bad_phase_wins_over_bad_cell(self):
        lines = ["agent_id,phase,3.02.03,3.03.04", "a,rehab,9,x"]
        with pytest.raises(DatasetError, match="^line 2: unknown phase 'rehab' for agent 'a'$"):
            read_dataset(lines)

    def test_earlier_line_with_a_bad_cell_is_named(self):
        header = "agent_id,phase,3.02.03,3.03.04"
        with pytest.raises(DatasetError, match="^line 2: level for agent 'a': quantification 7"):
            read_dataset([header, "a,pre_rehab,4,7", "b,pre_rehab,x,5"])
        with pytest.raises(DatasetError, match="^line 2: non-integer level for agent 'a'"):
            read_dataset([header, "a,pre_rehab,4,x", "b,pre_rehab,7,5"])

    @pytest.mark.parametrize("cell", [" 4", "04", "4 ", "4"])
    def test_padded_cells_read_as_their_number(self, cell):
        lines = ["agent_id,phase,3.02.03,3.03.04", f"a,unspecified,{cell},{cell}"]
        assert next(iter(read_dataset(lines))).values == {pid("3.02.03"): 4, pid("3.03.04"): 4}

    def test_each_read_parses_its_own_cells(self, monkeypatch):
        # a read parses each distinct cell text once, and keeps nothing for the next read
        parsed = []
        monkeypatch.setattr(profiles, "parse_score", lambda text: parsed.append(text) or parse_score(text))
        lines = ["agent_id,phase,3.02.03,3.03.04", "a,pre_rehab,4,4", "a,post_rehab,5,4", "b,pre_rehab,,5"]
        first = read_dataset(lines)
        assert parsed == ["4", "5"]
        assert read_dataset(lines) == first
        assert parsed == ["4", "5", "4", "5"]

    def test_requirement_set_validation(self, catalog):
        req = RequirementSet("act", {pid("3.03.04"): 5})
        req.validate_against(catalog)
        bad = RequirementSet("act", {pid("9.99.99"): 5})
        with pytest.raises(DatasetError):
            bad.validate_against(catalog)


class TestScoreCheck:
    @pytest.mark.parametrize("value", [3.9, True, "3"], ids=["float", "bool", "str"])
    def test_non_integer_score_rejected(self, value):
        with pytest.raises(QuantificationError):
            Profile("a", values={pid("3.03.04"): value})
        with pytest.raises(QuantificationError):
            RequirementSet("act", {pid("3.03.04"): value})

    def test_numpy_integer_stored_as_int(self):
        profile = Profile("a", values={pid("3.03.04"): np.int64(3)})
        requirements = RequirementSet("act", {pid("3.03.04"): np.uint8(5)})
        assert type(profile.values[pid("3.03.04")]) is int and profile.values[pid("3.03.04")] == 3
        assert type(requirements.requirements[pid("3.03.04")]) is int and requirements.total() == 5

    @pytest.mark.parametrize("value", [3, np.int64(3)], ids=["int", "numpy"])
    def test_input_mapping_not_aliased(self, value):
        values = {pid("3.03.04"): value}
        profile, requirements = Profile("a", values=values), RequirementSet("act", values)
        values[pid("3.03.04")] = 5
        values[pid("3.02.03")] = 1
        assert profile.values == requirements.requirements == {pid("3.03.04"): 3}


# Every malformed dataset file of the tests above.
MALFORMED_FILES = {
    "repeated-id": ["agent_id,phase,3.02.03,3.03.04,3.3.4", "demo,unspecified,5,0,4"],
    "malformed-id": ["agent_id,phase,3.03.04,3.x", "a,unspecified,4,4"],
    "unknown-id": ["agent_id,phase,3.03.04,9.99.99", "a,unspecified,4,4"],
    "unknown-id-empty": ["agent_id,phase,3.03.04,9.99.99", "a,unspecified,4,"],
    "fullwidth": ["agent_id,phase,3.02.03,3.03.04", "demo,unspecified,5,５"],
    "underscore": ["agent_id,phase,3.02.03,3.03.04", "demo,unspecified,5,0_4"],
    "sign": ["agent_id,phase,3.02.03,3.03.04", "demo,unspecified,5,+4"],
    "duplicate": ["agent_id,phase,3.03.04", "a,pre_rehab,4", "a,pre_rehab,5"],
    "later-duplicate": ["agent_id,phase,3.03.04", "a,pre_rehab,4", "a,post_rehab,5", "b,pre_rehab,3", "a,post_rehab,6"],
    "off-scale": ["agent_id,phase,3.02.03,3.03.04", "a,pre_rehab,4,5", "b,pre_rehab,9,5"],
    "range-then-digits": ["agent_id,phase,3.02.03,3.03.04", "b,pre_rehab,4,5", "a,pre_rehab,9,x"],
    "digits-then-range": ["agent_id,phase,3.02.03,3.03.04", "b,pre_rehab,4,5", "a,pre_rehab,x,9"],
    "digits-twice": ["agent_id,phase,3.02.03,3.03.04", "b,pre_rehab,4,5", "a,pre_rehab,x,y"],
    "bad-phase": ["agent_id,phase,3.02.03,3.03.04", "a,rehab,9,x"],
    "earlier-off-scale": ["agent_id,phase,3.02.03,3.03.04", "a,pre_rehab,4,7", "b,pre_rehab,x,5"],
    "earlier-non-integer": ["agent_id,phase,3.02.03,3.03.04", "a,pre_rehab,4,x", "b,pre_rehab,7,5"],
}


def _reorder_columns(text, order):
    """Dataset ``text`` with its capability columns in ``order``, given as positions among them."""
    rows = [line.split(",") for line in text.splitlines()]
    return "".join(",".join(row[:2] + [row[2 + k] for k in order]) + "\n" for row in rows)


class TestScoreTable:
    def test_rows_hold_the_file_scores(self):
        lines = ["agent_id,phase,3.02.03,3.03.04", "a,unspecified,,4", "b,pre_rehab, 04,6", "a,pre_rehab,0,"]
        table = read_dataset(lines)
        assert table.ids == (pid("3.02.03"), pid("3.03.04"))
        assert table.agents == ("a", "b", "a")
        assert table.phases == (Phase.UNSPECIFIED, Phase.PRE_REHAB, Phase.PRE_REHAB)
        assert table.scores == ((-1, 4), (4, 6), (0, -1))
        assert {type(score) for row in table.scores for score in row} == {int}
        assert list(table) == [
            make_profile({"3.03.04": 4}, "a"),
            make_profile({"3.02.03": 4, "3.03.04": 6}, "b", Phase.PRE_REHAB),
            make_profile({"3.02.03": 0}, "a", Phase.PRE_REHAB),
        ]
        assert table.select("a", Phase.PRE_REHAB) == make_profile({"3.02.03": 0}, "a", Phase.PRE_REHAB)
        assert table.select("b") == make_profile({"3.02.03": 4, "3.03.04": 6}, "b", Phase.PRE_REHAB)
        with pytest.raises(ConfigError, match="^agent 'a' has profiles for phases unspecified, pre_rehab; name one$"):
            table.select("a")
        with pytest.raises(DatasetError, match="^no profile for agent 'b' phase post_rehab$"):
            table.select("b", Phase.POST_REHAB)
        pre = table.with_phase(Phase.PRE_REHAB)
        assert (pre.agents, pre.scores, len(pre)) == (("b", "a"), ((4, 6), (0, -1)), 2)
        assert len(table.with_phase(Phase.POST_REHAB)) == 0

    @pytest.mark.parametrize("row, width", [((), 0), ((3, 4), 2)], ids=["short", "long"])
    def test_row_of_another_width_rejected(self, row, width):
        a = pid("3.03.04")
        with pytest.raises(DatasetError, match=f"^row for agent 'b' phase pre_rehab holds {width} scores for 1 ids$"):
            ScoreTable((a,), ("a", "b"), (Phase.PRE_REHAB,) * 2, ((3,), row))

    def test_matrix_lays_the_rows_onto_ids(self):
        a, b, c = pid("3.02.03"), pid("3.03.04"), pid("1.05.01")
        table = ScoreTable((a, b), ("x", "y"), (Phase.PRE_REHAB,) * 2, ((1, 2), (3, 4)))
        matrix = table.matrix([b, a])
        assert matrix.dtype == np.float64 and matrix.tolist() == [[2.0, 1.0], [4.0, 3.0]]
        with pytest.raises(DatasetError, match=r"^profile x/pre_rehab incomplete over ids: 1\.05\.01$"):
            table.matrix([a, c])  # an id the table lacks is not assessed in any row
        assert table.with_phase(Phase.POST_REHAB).matrix([b, a, c]).shape == (0, 3)

    def test_read_leaves_no_cyclic_garbage(self, sitting_set, cyclic_garbage):
        # neither the read nor the table's phase, filter and selection steps leave garbage behind
        config = GeneratorConfig(ids=tuple(sitting_set), agents=25)
        lines = write_dataset(generate_synthetic_profiles(config, seed=2)).splitlines()

        def steps():
            table = read_dataset(lines).with_phase(Phase.POST_REHAB)
            return list(filter_profiles(table, sitting_set)), table.retained(sitting_set), table.select("A00003")

        assert cyclic_garbage(steps) == 0

    @pytest.mark.parametrize("agents, seed", [(7, 1), (40, 2), (150, 3)])
    @pytest.mark.parametrize("fraction", [0.0, 0.15, 1.0])
    @pytest.mark.parametrize("layout", ["canonical", "shuffled", "lacking"])
    def test_retained_equals_filtered_profile_matrix(self, tmp_path, catalog, sitting_set, agents, seed, fraction, layout):
        # the header may list the evaluation ids in any order, or lack one, which leaves no row complete;
        # the reference re-filters the CSV rows with the two-pass oracle
        config = GeneratorConfig(ids=tuple(sitting_set), agents=agents, degenerate_fraction=fraction)
        text = write_dataset(generate_synthetic_profiles(config, seed))
        if layout == "shuffled":
            text = _reorder_columns(text, random.Random(seed).sample(range(len(sitting_set)), len(sitting_set)))
        elif layout == "lacking":
            text = _reorder_columns(text, [k for k in range(len(sitting_set)) if k != 5])
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        header, *lines = csv.reader(text.splitlines())
        cells = [dict(zip(header, line)) for line in lines]
        table = load_dataset(path, catalog)
        kept_rows = 0
        for phase in (Phase.PRE_REHAB, Phase.POST_REHAB, None):
            rows = table if phase is None else table.with_phase(phase)
            of_phase = [row for row in cells if phase is None or row["phase"] == phase.value]
            assert len(rows) == len(of_phase)
            for threshold in (0.0, 0.2):
                expected = [
                    (row["agent_id"], row["phase"], [int(row.get(str(cap), "")) for cap in sitting_set])
                    for row in of_phase
                    if all(row.get(str(cap)) for cap in sitting_set)
                ]
                expected = [row for row in expected if population_std_two_pass(row[2]) >= threshold]
                matrix = np.array([levels for _, _, levels in expected], dtype=float).reshape(len(expected), len(sitting_set))
                retained = rows.retained(sitting_set, threshold)
                assert retained.dtype == np.float64 and retained.shape == matrix.shape
                assert np.array_equal(retained, matrix)
                kept = filter_profiles(rows, sitting_set, threshold)
                assert [(p.agent_id, p.phase.value) for p in kept] == [(agent, phase) for agent, phase, _ in expected]
                kept_rows += len(expected)
        assert (kept_rows == 0) == (layout == "lacking")

    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_malformed_file_fails_alike_everywhere(self, tmp_path, capsys, catalog, name):
        # read_dataset and analyze name the same fault, and analyze exits 3 on it
        lines = MALFORMED_FILES[name]
        with pytest.raises(DatasetError) as raised:
            read_dataset(lines, catalog)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["analyze", "--data", str(path), "--resamples", "9"], standalone_mode=False) == EXIT_DATA
        assert capsys.readouterr() == ("", f"error: {raised.value}\n")
