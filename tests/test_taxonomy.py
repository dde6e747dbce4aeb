import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capnet import taxonomy
from capnet.errors import CapabilityIdError, CatalogError, QuantificationError
from capnet.taxonomy import (
    CapabilityId,
    Category,
    Posture,
    parse_capability_id,
    quantification,
    quantification_label,
    read_catalog,
    sitting_over_table_set,
)


class TestParseCapabilityId:
    def test_detail_level(self):
        assert parse_capability_id("3.04.08") == CapabilityId(3, 4, 8)

    def test_main_level(self):
        assert parse_capability_id("1.01") == CapabilityId(1, 1)

    def test_unpadded_normalizes(self):
        assert str(parse_capability_id("3.4.8")) == "3.04.08"

    @pytest.mark.parametrize(
        "bad",
        ["", "3", "3.", ".04", "3..08", "3.04.08.01", "3.x.08", "a.b", "3.-1", "0.01", "3.04.00", "3.²", "３.04"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(CapabilityIdError):
            parse_capability_id(bad)

    def test_error_names_component(self):
        with pytest.raises(CapabilityIdError, match="main"):
            parse_capability_id("3..08")

    def test_repeated_parse_returns_equal_ids(self):
        first = parse_capability_id("3.4.8")
        assert parse_capability_id("3.4.8") == first == parse_capability_id("3.04.08") == CapabilityId(3, 4, 8)
        assert type(parse_capability_id("3.4.8")) is CapabilityId

    def test_bad_text_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(CapabilityIdError, match="main"):
                parse_capability_id("3..08")

    @pytest.mark.parametrize("value", [None, 304, b"3.04", ["3", "04"], {"3.04": 1}])
    def test_non_string_raises_capability_id_error(self, value):
        # unhashable values too: the type is checked before the memo is consulted
        with pytest.raises(CapabilityIdError, match="expected string"):
            parse_capability_id(value)

    def test_memo_stays_within_its_bound(self):
        memo = taxonomy._parse_id_text
        bound = memo.cache_parameters()["maxsize"]
        for k in range(bound + 100):
            assert parse_capability_id(f"{k // 99 + 1}.{k % 99 + 1}") == CapabilityId(k // 99 + 1, k % 99 + 1)
        assert memo.cache_info().currsize == bound

    @given(
        st.integers(1, 9),
        st.integers(1, 99),
        st.integers(0, 99),
    )
    def test_round_trip(self, complex_, main, detail):
        cap = CapabilityId(complex_, main, detail)
        assert parse_capability_id(str(cap)) == cap

    def test_ordering_detail_absent_first(self):
        assert parse_capability_id("3.04") < parse_capability_id("3.04.01")
        assert parse_capability_id("3.04.08") < parse_capability_id("3.05")
        assert parse_capability_id("1.06.02") < parse_capability_id("3.01.01")

    def test_main_level_constructor_rejects_none(self):
        with pytest.raises(CapabilityIdError):
            CapabilityId(3, 4, None)
        assert CapabilityId(3, 4).detail == 0
        assert parse_capability_id("3.04").is_main_level

    def test_hash_stable_across_interpreters(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "from capnet.taxonomy import parse_capability_id as p; print(hash(p('3.04')), hash(p('3.04.08')))"
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, outputs


def _reference_key(cap):
    """Order read off the rendered id: complex, main, main level before its details, detail."""
    parts = [int(part) for part in str(cap).split(".")]
    return (parts[0], parts[1], len(parts) - 2, parts[2] if len(parts) == 3 else 0)


_ids = st.builds(CapabilityId, st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))


class TestCanonicalOrder:
    @given(_ids, _ids)
    def test_comparisons_match_reference_key(self, a, b):
        assert (a < b) == (_reference_key(a) < _reference_key(b))
        assert (a <= b) == (_reference_key(a) <= _reference_key(b))
        assert (a == b) == (_reference_key(a) == _reference_key(b))

    @given(st.lists(_ids, max_size=12))
    def test_sorted_matches_reference_key(self, caps):
        assert sorted(caps) == sorted(caps, key=_reference_key)


_fields = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))


class TestTupleSemantics:
    @given(st.lists(_fields, max_size=12), _fields, _fields)
    def test_order_equality_and_hash_are_the_tuples(self, many, a, b):
        assert sorted(CapabilityId(*t) for t in many) == [CapabilityId(*t) for t in sorted(many)]
        assert (CapabilityId(*a) == CapabilityId(*b)) == (a == b)
        assert (CapabilityId(*a) < CapabilityId(*b)) == (a < b)
        assert hash(CapabilityId(*a)) == hash(a)

    def test_comparison_methods_are_tuple_builtins(self):
        for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(CapabilityId, name) is getattr(tuple, name), name

    def test_equal_to_plain_tuple(self):
        cap = parse_capability_id("3.04")
        assert cap == (3, 4, 0)
        assert cap < (3, 4, 1)
        assert {cap: 1}[(3, 4, 0)] == 1

    @pytest.mark.parametrize("round_trip", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy])
    def test_copies_keep_the_type(self, round_trip):
        for cap in (parse_capability_id("3.04"), parse_capability_id("3.04.08")):
            again = round_trip(cap)
            assert type(again) is CapabilityId
            assert again == cap and str(again) == str(cap)

    def test_no_instance_dict(self):
        cap = parse_capability_id("3.04.08")
        assert not hasattr(cap, "__dict__")
        with pytest.raises(AttributeError):
            cap.extra = 1

    @pytest.mark.parametrize(
        "args", [(True, 4), (3, True), (3, 4, True), (3, 4, False), (3, 4.0), ("3", 4)]
    )
    def test_bool_and_non_int_components_rejected(self, args):
        with pytest.raises(CapabilityIdError):
            CapabilityId(*args)

    def test_replace_is_validated(self):
        cap = parse_capability_id("3.04.08")
        assert cap._replace(detail=0) == parse_capability_id("3.04")
        with pytest.raises(CapabilityIdError):
            cap._replace(main=True)


class TestQuantification:
    @pytest.mark.parametrize("value", [7, -1, 100])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(QuantificationError):
            quantification(value)

    def test_scale_accepted(self):
        assert [quantification(v) for v in range(7)] == list(range(7))

    def test_labels(self):
        assert quantification_label(3) == "3-"
        assert quantification_label(4) == "3+"
        assert quantification_label(5) == "4"
        assert quantification_label(6) == "5"
        assert quantification_label(0) == "0"

    def test_non_integer_rejected(self):
        with pytest.raises(QuantificationError):
            quantification(3.5)


class TestCatalog:
    def test_entry_counts(self, catalog):
        over = [e for e in catalog if e.category is Category.OVER_TABLE]
        upstream = [e for e in catalog if e.category is Category.UPSTREAM]
        assert len(over) == 24
        # the 12 upstream assessables plus the main-level vision aggregate
        assert len(upstream) == 13
        assert parse_capability_id("4.01") in catalog

    def test_names_spot_checks(self, catalog):
        assert catalog.name_of(parse_capability_id("3.04.08")) == "Finger - Pinch Grip - Unilateral"
        assert catalog.name_of(parse_capability_id("1.01")) == "Sitting"

    def test_duplicate_ids_rejected(self):
        lines = [
            "id,name,category,posture,laterality",
            "1.01,Sitting,upstream,sitting,n/a",
            "1.01,Sitting again,upstream,sitting,n/a",
        ]
        with pytest.raises(CatalogError):
            read_catalog(lines)

    @pytest.mark.parametrize(
        "misuse, message",
        [
            (lambda catalog: taxonomy.CapabilityCatalog([*catalog, next(iter(catalog))]), "duplicate catalog id 1.01"),
            (lambda catalog: catalog[parse_capability_id("9.99")], "unknown capability id 9.99"),
        ],
        ids=["repeated-id", "unknown-id"],
    )
    def test_catalog_misuse_rejected(self, catalog, misuse, message):
        with pytest.raises(CatalogError, match=message):
            misuse(catalog)

    def test_short_row_rejected(self):
        lines = ["id,name,category,posture,laterality", "1.01,Sitting"]
        with pytest.raises(CatalogError, match="line 2"):
            read_catalog(lines)

    def test_knows_main_aggregates_of_details(self, catalog):
        assert catalog.knows_value_id(parse_capability_id("3.04"))
        assert not catalog.knows_value_id(parse_capability_id("9.99"))


class TestSittingOverTableSet:
    def test_count_and_membership(self, catalog, sitting_set):
        # 24 over-table entries minus the standing-only postures
        assert len(sitting_set) == 22
        rendered = {str(c) for c in sitting_set}
        assert {"1.02", "1.05.03", "1.05.04"}.isdisjoint(rendered)
        assert {"1.05.01", "1.05.02", "1.06.01", "1.06.02", "3.02.01"} <= rendered

    def test_canonical_order(self, sitting_set):
        assert sitting_set == sorted(sitting_set)

    def test_empty_catalog(self):
        empty = read_catalog(["id,name,category,posture,laterality"])
        assert sitting_over_table_set(empty) == []

    def test_posture_tags(self, catalog):
        assert catalog[parse_capability_id("1.05.03")].posture is Posture.STANDING
        assert catalog[parse_capability_id("3.02.01")].posture is Posture.SITTING
