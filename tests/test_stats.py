import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.errors import DatasetError, UndefinedCorrelationError
from capnet.profiles import Phase, Profile, ProfileDataset
from capnet.stats import (
    CorrelationStrength,
    classify_correlation,
    correlation_matrix,
    pairwise_permutation_pvalues,
    pearson,
    permutation_test,
    profile_matrix,
)
from capnet.taxonomy import parse_capability_id as pid

from oracles import ks_distance_from_uniform, pearson_two_pass, permutation_exceedances_exact


def _resample_rows(seed, n_resamples, n):
    """A run's resample rows drawn and argsorted in one block."""
    keys = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random((n_resamples, n))
    return np.argsort(keys, axis=1, kind="stable")


class TestPearson:
    def test_identity(self):
        x = [1.0, 2.0, 5.0, 3.0]
        assert pearson(x, x) == 1.0

    def test_negation(self):
        x = [1.0, 2.0, 5.0, 3.0]
        assert pearson(x, [-v for v in x]) == -1.0

    def test_frozen_oracle_value(self):
        # expected value computed with the two-pass oracle
        x = (1, 2, 3, 4)
        y = (1, 2, 3, 10)
        expected = 0.8854377448471462
        assert abs(pearson_two_pass(x, y) - expected) < 1e-15
        assert abs(pearson(x, y) - expected) < 1e-12

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert abs(pearson(x, y) - pearson_two_pass(list(x), list(y))) < 1e-12

    def test_constant_input_errors(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 2, 3], [4, 4, 4])

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            pearson([np.nan, 1, 2, 5], [1, 2, 3, 4])

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], "expected 1-d vector"),
            ([1.0, 2.0, 3.0], [1.0, 2.0], "length mismatch: 3 vs 2"),
            ([1.0], [2.0], "at least 2 observations"),
        ],
    )
    def test_malformed_shape_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            pearson(x, y)

    @settings(max_examples=60)
    @given(
        st.integers(2, 20),
        st.floats(0.1, 50.0),
        st.floats(-20.0, 20.0),
        st.integers(0, 2**31 - 1),
    )
    def test_affine_invariance(self, n, scale, offset, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 7, size=max(n, 2)).astype(float)
        y = rng.integers(0, 7, size=max(n, 2)).astype(float)
        if np.ptp(x) == 0:
            x[0] += 1
        if np.ptp(y) == 0:
            y[0] += 1
        base = pearson(x, y)
        assert abs(pearson(x * scale + offset, y) - base) < 1e-9


class TestCorrelationMatrix:
    def _dataset(self, columns, n):
        ids = sorted(columns)
        profiles = []
        for i in range(n):
            values = {cap: int(columns[cap][i]) for cap in ids}
            profiles.append(Profile(f"a{i}", Phase.POST_REHAB, values))
        return ProfileDataset(profiles), ids

    def test_equal_columns_give_unit_offdiagonal(self):
        a, b = pid("1.05.01"), pid("1.05.02")
        col = [1, 2, 3, 4, 5, 6, 0, 2]
        dataset, ids = self._dataset({a: col, b: col}, len(col))
        matrix = correlation_matrix(dataset, ids)
        assert matrix.r[0, 1] == 1.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(5)
        ids = [pid(f"3.03.{i:02d}") for i in (2, 4, 6, 8, 10)]
        columns = {cap: rng.integers(0, 7, size=60) for cap in ids}
        dataset, ids = self._dataset(columns, 60)
        matrix = correlation_matrix(dataset, ids)
        assert np.array_equal(matrix.r, matrix.r.T)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(31)
        ids = [pid(f"3.04.{i:02d}") for i in (2, 4, 6, 8, 10)]
        columns = {cap: rng.integers(0, 7, size=5000) for cap in ids}
        dataset, ids = self._dataset(columns, 5000)
        matrix = correlation_matrix(dataset, ids)
        off = [abs(matrix.r[i, j]) for i in range(5) for j in range(5) if i != j]
        assert float(np.mean(off)) < 0.05

    def test_constant_column_recorded_undefined(self):
        a, b = pid("1.05.01"), pid("1.05.02")
        dataset, ids = self._dataset({a: [3] * 6, b: [1, 2, 3, 1, 2, 3]}, 6)
        matrix = correlation_matrix(dataset, ids)
        assert np.isnan(matrix.r[0, 1])
        assert matrix.undefined_ids() == [a]
        assert matrix.r[1, 1] == 1.0

    def test_too_few_profiles(self):
        a = pid("1.05.01")
        dataset, ids = self._dataset({a: [3]}, 1)
        with pytest.raises(DatasetError):
            correlation_matrix(dataset, ids)

    def test_incomplete_profile_rejected(self):
        a, b = pid("1.05.01"), pid("1.05.02")
        profiles = [
            Profile("x", Phase.POST_REHAB, {a: 1, b: 2}),
            Profile("y", Phase.POST_REHAB, {a: 3}),
        ]
        with pytest.raises(DatasetError):
            correlation_matrix(ProfileDataset(profiles), [a, b])

    def test_only_the_incomplete_profile_is_named(self, monkeypatch):
        a, b, c = pid("1.05.01"), pid("1.05.02"), pid("1.06.01")
        profiles = [Profile(f"x{k}", Phase.POST_REHAB, {a: k, b: 2, c: 3}) for k in range(4)]
        profiles.append(Profile("y", Phase.POST_REHAB, {b: 3}))
        named = []
        real = Profile.missing_from
        monkeypatch.setattr(Profile, "missing_from", lambda self, ids: named.append(self.agent_id) or real(self, ids))
        assert profile_matrix(ProfileDataset(profiles[:4]), [c, a, b]).shape == (4, 3)
        assert named == []
        with pytest.raises(DatasetError) as err:
            profile_matrix(ProfileDataset(profiles), [c, a, b])
        assert str(err.value) == "profile y/post_rehab incomplete over ids: 1.05.01, 1.06.01"
        assert named == ["y"]


class TestPermutationTest:
    def test_perfect_correlation_floors_p(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        result = permutation_test(x, x, n_resamples=10_000, seed=4)
        assert result.p_value == 1 / 10_001
        assert result.statistic == 1.0

    def test_reproducible(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        a = permutation_test(x, y, 500, seed=9)
        b = permutation_test(x, y, 500, seed=9)
        assert a == b
        c = permutation_test(x, y, 500, seed=10)
        assert c.p_value != a.p_value or c.statistic == a.statistic

    def test_p_never_zero_nor_above_one(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            result = permutation_test(x, y, 99, seed=seed)
            assert 0.0 < result.p_value <= 1.0

    def test_independent_inputs_mostly_insignificant(self):
        hits = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            x = rng.normal(size=476)
            y = rng.normal(size=476)
            result = permutation_test(x, y, 300, seed=seed)
            if result.p_value > 0.05:
                hits += 1
        assert hits >= 90

    def test_null_p_distribution_uniform(self):
        pvalues = []
        for seed in range(200):
            rng = np.random.default_rng(5000 + seed)
            x = rng.normal(size=476)
            y = rng.normal(size=476)
            pvalues.append(permutation_test(x, y, 999, seed=seed).p_value)
        assert ks_distance_from_uniform(pvalues) < 0.15

    def test_strong_dependence_hits_floor(self):
        rng = np.random.default_rng(77)
        x = rng.normal(size=476)
        y = x + rng.normal(scale=0.05, size=476)
        result = permutation_test(x, y, 10_000, seed=1)
        assert result.p_value <= 0.0002

    def test_resample_count_validated(self):
        with pytest.raises(ValueError):
            permutation_test([1, 2, 3], [1, 2, 3], 0, seed=0)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            permutation_test([np.nan, 1, 2, 5], [1, 2, 3, 4], 99, seed=0)

    def test_resample_leaving_data_unchanged_counts(self):
        # only y[5] differs, so a row leaves y unchanged exactly when it keeps 5 in place;
        # x[5] lies farthest from the mean, so only those rows reach the observed |r|.
        # Their float sums need not equal the observed one bit for bit; they still count.
        x = [0.4, 0.7, -1.2, -0.7, -0.4, 6.4]
        y = [1, 1, 1, 1, 1, 4]
        unchanged = int((np.array(y)[_resample_rows(3, 300, 6)] == y).all(axis=1).sum())
        assert unchanged > 0
        assert permutation_test(x, y, 300, seed=3).p_value == (unchanged + 1) / 301

    @pytest.mark.parametrize("n_resamples", [31, 32, 33, 255, 256, 257, 600])
    def test_matches_unchunked_reference(self, n_resamples):
        # reference: all resample rows drawn and argsorted in one block, ties counted exactly
        rng = np.random.default_rng(19)
        x = rng.integers(0, 7, size=90).astype(float)
        y = rng.integers(0, 7, size=90).astype(float)
        b = permutation_exceedances_exact(x, y, _resample_rows(23, n_resamples, 90))
        result = permutation_test(x, y, n_resamples, seed=23)
        assert 0 < b < n_resamples
        assert result.p_value == (b + 1) / (n_resamples + 1)

    def test_rows_with_tied_keys_are_stable_argsorts(self, monkeypatch):
        # keys on a grid of 64 steps tie in nearly every row, most often between positions
        # that are not neighbours; the default argsort may order tied positions unstably
        real = np.random.Generator

        class CoarseKeys:
            def __init__(self, bit_generator):
                self.generator = real(bit_generator)

            def random(self, shape):
                return np.floor(self.generator.random(shape) * 64) / 64

        rng = np.random.default_rng(29)
        data = rng.integers(0, 7, size=(40, 4)).astype(float)
        keys = CoarseKeys(np.random.Philox(key=np.uint64(17))).random((70, 40))
        rows = np.argsort(keys, axis=1, kind="stable")
        monkeypatch.setattr(np.random, "Generator", CoarseKeys)
        table = pairwise_permutation_pvalues(data, [pid(f"3.03.{k:02d}") for k in (2, 4, 6, 8)], 70, seed=17)
        for i in range(4):
            for j in range(i + 1, 4):
                b = permutation_exceedances_exact(data[:, i], data[:, j], rows)
                assert table.r[i, j] == (b + 1) / 71

    @pytest.mark.parametrize(
        "n, dtype", [(90, np.float32), (91, np.float64), (400, np.float64)], ids=["f32-edge", "f64-edge", "f64-wide"]
    )
    def test_shifted_product_dtype_follows_its_bound(self, monkeypatch, n, dtype):
        # shifted scores y = x - min(x) are multiplied in float32 only while max(y)**2 * n < 2**24:
        # 431**2 * 90 lies just below that bound and 431**2 * 91 just above. Two levels, mostly the
        # top one, give many exact ties, and at n = 400 partial sums of y'y[pi] past 2**24 that
        # float32 would round (431**2 is odd)
        rng = np.random.default_rng(n)
        x, y = (np.where(rng.random(n) < 0.8, 431.0, 0.0) for _ in range(2))
        real, seen = np.matmul, set()
        monkeypatch.setattr(np, "matmul", lambda a, b: seen.add(b.dtype) or real(a, b))
        b = permutation_exceedances_exact(x, y, _resample_rows(5, 70, n))
        assert permutation_test(x, y, 70, seed=5).p_value == (b + 1) / 71
        assert seen == {np.dtype(dtype)}

    @pytest.mark.parametrize(
        "move",
        [lambda v: v, lambda v: v + 1000, lambda v: v - 1000, lambda v: v + 0.5, lambda v: v / 64],
        ids=["scores", "plus-1000", "minus-1000", "plus-half", "64ths"],
    )
    def test_moved_integer_scores_count_exactly(self, move):
        # the exact product shifts each column to start at 0, which makes offset integers and
        # half-integers integers again. x / 64 has integer centred columns 64x - sum(x), as 64
        # divides sum(x), but no integer shift: einsum counts it, exactly on those integers.
        # y holds negative integers; 45 rows are one full chunk and a part
        rng = np.random.default_rng(37)
        x = rng.integers(0, 7, size=64).astype(float)
        x[0] += -x.sum() % 64
        y = rng.integers(-6, 1, size=64).astype(float)
        b = permutation_exceedances_exact(x, y, _resample_rows(21, 45, 64))
        assert permutation_test(move(x), y, 45, seed=21).p_value == (b + 1) / 46


class TestPairwisePvalues:
    def _dataset(self):
        rng = np.random.default_rng(41)
        ids = [pid("1.05.01"), pid("1.05.02"), pid("3.01.01"), pid("3.03.02"), pid("3.04.08")]
        base = rng.integers(0, 7, size=70)
        columns = np.column_stack(
            [
                base,
                np.clip(base + rng.integers(-1, 2, size=70), 0, 6),
                rng.integers(0, 7, size=70),
                np.full(70, 4),
                np.clip(6 - base + rng.integers(-3, 4, size=70), 0, 6),
            ]
        )
        profiles = [
            Profile(f"a{k}", Phase.POST_REHAB, {cap: int(v) for cap, v in zip(ids, row)})
            for k, row in enumerate(columns)
        ]
        return ProfileDataset(profiles), ids, columns.astype(float)

    @pytest.mark.parametrize("n_resamples", [1, 31, 32, 33, 255, 256, 257, 600])
    def test_entries_equal_single_pair_test(self, n_resamples):
        dataset, ids, data = self._dataset()
        rows = _resample_rows(12, n_resamples, len(data))
        # column 3 is constant at 4; the second input holds 0.1 there, a constant that is not an integer
        fractional = data.copy()
        fractional[:, 3] = 0.1
        for source in (dataset, fractional):
            table = pairwise_permutation_pvalues(source, ids, n_resamples, seed=12)
            defined = 0
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    if np.isnan(table.r[i, j]):
                        continue
                    defined += 1
                    single = permutation_test(data[:, i], data[:, j], n_resamples, seed=12)
                    exact = permutation_exceedances_exact(data[:, i], data[:, j], rows)
                    assert single.p_value == (exact + 1) / (n_resamples + 1)
                    assert table.r[i, j] == single.p_value
                    assert table.r[j, i] == single.p_value
            assert defined == 6
            assert np.isnan(table.r[3]).all() and np.isnan(table.r[:, 3]).all()

    def test_resample_count_validated(self):
        dataset, ids, _ = self._dataset()
        with pytest.raises(ValueError):
            pairwise_permutation_pvalues(dataset, ids, 0, seed=0)

    def test_prebuilt_profile_matrix_gives_same_tables(self):
        dataset, ids, data = self._dataset()
        built = profile_matrix(dataset, ids)
        assert np.array_equal(built, data)
        for table in (correlation_matrix, lambda d, i: pairwise_permutation_pvalues(d, i, 99, seed=5)):
            direct, reused = table(dataset, ids), table(built, ids)
            assert reused.ids == direct.ids
            assert np.array_equal(reused.r, direct.r, equal_nan=True)

    def test_prebuilt_matrix_must_match_ids(self):
        _, ids, data = self._dataset()
        for table in (correlation_matrix, pairwise_permutation_pvalues):
            with pytest.raises(ValueError):
                table(data, ids[:-1])
            with pytest.raises(ValueError):
                table(data[:, :-1], ids)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_rejected_from_either_input(self, rows):
        dataset, ids, data = self._dataset()
        few = ProfileDataset(list(dataset)[:rows])
        for table in (correlation_matrix, lambda d, i: pairwise_permutation_pvalues(d, i, 99, seed=5)):
            for given_input in (few, data[:rows]):
                with pytest.raises(DatasetError, match=f"need at least 2 profiles, got {rows}"):
                    table(given_input, ids)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_prebuilt_matrix_must_be_finite(self, bad):
        _, ids, data = self._dataset()
        data[7, 2] = bad
        for table in (correlation_matrix, lambda d, i: pairwise_permutation_pvalues(d, i, 99, seed=5)):
            with pytest.raises(ValueError, match="non-finite"):
                table(data, ids)

    def test_tables_identical_across_blas_thread_counts(self):
        # at 3,000 profiles each (22 x 3,000) @ (3,000 x 22) product of a chunk is large enough for
        # OpenBLAS to split across threads. The float columns hold two non-integer levels in balanced
        # quarters, so many pairs and nulls are exactly uncorrelated and their computed statistics are
        # rounding noise: counts then depend on the summation order, which a BLAS thread split changes.
        script = (
            "import hashlib, numpy as np\n"
            "from capnet import stats, taxonomy\n"
            "ids = taxonomy.sitting_over_table_set(taxonomy.load_default_catalog())\n"
            "rng = np.random.default_rng(43)\n"
            "levels = np.array([rng.permutation([0.2, 0.9, 0.2, 0.9]) for _ in ids]).T\n"
            "quarters = np.repeat(levels, 750, axis=0)[rng.permutation(3000)]\n"
            "for data in (rng.integers(0, 7, size=(3000, 22)).astype(float), quarters):\n"
            "    table = stats.pairwise_permutation_pvalues(data, ids, 150, seed=8).to_csv()\n"
            "    print(hashlib.sha256(table.encode()).hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        digests = []
        for threads in ("1", "4"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert len(digests[0].split()) == 2
        assert digests[0] == digests[1]

    def test_shape_and_symmetry(self):
        rng = np.random.default_rng(6)
        ids = [pid("1.05.01"), pid("1.05.02"), pid("3.01.01")]
        profiles = [
            Profile(f"a{i}", Phase.POST_REHAB, {cap: int(v) for cap, v in zip(ids, row)})
            for i, row in enumerate(rng.integers(0, 7, size=(40, 3)))
        ]
        table = pairwise_permutation_pvalues(ProfileDataset(profiles), ids, 199, seed=3)
        assert np.array_equal(np.isnan(table.r), np.isnan(table.r.T))
        mask = ~np.isnan(table.r)
        assert np.array_equal(table.r[mask], table.r.T[mask])
        again = pairwise_permutation_pvalues(ProfileDataset(profiles), ids, 199, seed=3)
        assert np.array_equal(table.r[mask], again.r[mask])


class TestClassify:
    @pytest.mark.parametrize(
        "r,expected",
        [
            (0.39, CorrelationStrength.WEAK),
            (-0.39, CorrelationStrength.WEAK),
            (0.4, CorrelationStrength.MODERATE),
            (0.704, CorrelationStrength.MODERATE),
            (0.799, CorrelationStrength.MODERATE),
            (0.8, CorrelationStrength.STRONG),
            (0.975, CorrelationStrength.STRONG),
            (-0.9, CorrelationStrength.STRONG),
        ],
    )
    def test_boundaries(self, r, expected):
        assert classify_correlation(r) is expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_correlation(1.2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            classify_correlation(float("nan"))
