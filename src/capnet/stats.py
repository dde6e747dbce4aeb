"""Pearson correlation, Monte Carlo exact permutation tests, classification.

Determinism contract: every stochastic routine is a pure function of its
inputs and an explicit integer seed. Resample ``i`` is the stable argsort of
row ``i`` of ``Generator(Philox(key=seed)).random((n_resamples, n))``, drawn
in fixed chunks of rows as raw 64-bit words: ``random`` maps a word w to
(w >> 11) / 2**53, so w >> 11 orders a row as the doubles do, and a row's
order is one plain sort of those keys packed above their column indices
(past n = 2048, rows whose kept key bits tie are re-sorted stably on the
full keys). A p-value table applies the same rows to every pair (no seed is
derived per pair), so its entries are dependent across pairs. Statistics
are cross products of scale-centred columns c = n*x - sum(x), and a
chunk's null statistics are one batched matrix product. When the shifted
columns y = x - min(x) are integers that give c = n*y - sum(y), and the
squares of c sum below 2**53, that product goes to BLAS over y: the null
is n*(n*T - sum(y_i)*sum(y_j)) with T = y_i'y_j[pi]. Every product and
partial sum of T is an integer no larger than T, and
T <= sqrt(sum(y_i**2) * sum(y_j**2)) (Cauchy-Schwarz). That is at most
n*max(y)**2, so float32 holds T exactly while that stays below 2**24,
and float64 does always, since sum(y**2) <= sum(c**2) < 2**53. So T is
exact whatever order, blocking or thread split BLAS uses, and observed
and permuted values tie where integers do. No null is rebuilt: a pair's
null reaches its observed value exactly where T passes one of two
integer thresholds (see ``_exceedances``), computed once per pair in
int64, which holds them since n*T and sum(y_i)*sum(y_j) stay below
2**54. Profiles of 0-6 scores
qualify for n < 100,000, since sum(c**2) <= 9*n**3 < 2**53, and there
always use float32, since 36*n < 2**24. Other input is reduced over c
by einsum, whose order does not depend on BLAS/OpenMP thread settings,
and carries a relative tie tolerance of 100 eps. So results are
bit-identical across runs and thread settings.

The exceedance counts cover every column, constant ones too; a p-value
table masks each pair that touches a constant column as undefined (NaN).
A ``ScoreTable`` reaches both tables as its ``matrix`` over the ids, of
shape (0, len(ids)) when it has no rows, so no ``Profile`` is read here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DatasetError, UndefinedCorrelationError
from .profiles import ScoreTable
from .taxonomy import CapabilityId

__all__ = [
    "CorrelationMatrix",
    "PermutationTestResult",
    "CorrelationStrength",
    "pearson",
    "correlation_matrix",
    "permutation_test",
    "pairwise_permutation_pvalues",
    "classify_correlation",
]

_CHUNK = 32  # resample rows drawn, argsorted and applied at a time


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector holds a non-finite value")
    return arr


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    if np.ptp(x) == 0:
        raise UndefinedCorrelationError("first vector is constant")
    if np.ptp(y) == 0:
        raise UndefinedCorrelationError("second vector is constant")


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors.

    Raises UndefinedCorrelationError when either vector is constant.
    """
    x, y = _as_vector(x), _as_vector(y)
    _check_pair(x, y)
    return float(_correlations(np.column_stack((x, y)))[0, 1])


def _centred_products(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale-centred columns c = n*x - sum(x) and their cross-product matrix c'c.

    A constant column centres to exactly 0, which n*x - sum(x) in floats need not give (x = 0.1, n = 70).
    """
    centred = len(data) * data - data.sum(axis=0)
    centred[:, np.ptp(data, axis=0) == 0] = 0.0
    return centred, np.einsum("ki,kj->ij", centred, centred, optimize=False)


def _correlations(data: np.ndarray) -> np.ndarray:
    """Pearson matrix of the columns; cells touching a constant column are NaN."""
    products = _centred_products(data)[1]
    sums = np.diag(products)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(products / np.sqrt(np.outer(sums, sums)), -1.0, 1.0)
    r = np.triu(r) + np.triu(r, 1).T
    constant = np.ptp(data, axis=0) == 0
    r[constant] = r[:, constant] = np.nan
    return r


@dataclass(frozen=True)
class CorrelationMatrix:
    """Square symmetric correlation matrix over an ordered id list.

    Cells touching a constant column are undefined and stored as NaN. The
    diagonal is 1 exactly where the column is non-constant.
    """

    ids: tuple[CapabilityId, ...]
    r: np.ndarray

    def __post_init__(self):
        if self.r.shape != (len(self.ids), len(self.ids)):
            raise ValueError("matrix shape does not match id list")

    def undefined_ids(self) -> list[CapabilityId]:
        return [cap for i, cap in enumerate(self.ids) if np.isnan(self.r[i, i])]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["id"] + [str(c) for c in self.ids])
        for cap, row in zip(self.ids, self.r):
            writer.writerow([str(cap)] + ["" if np.isnan(value) else f"{value:.6f}" for value in row])
        return buffer.getvalue()


def _data_matrix(dataset: ScoreTable | np.ndarray, ids: tuple[CapabilityId, ...]) -> np.ndarray:
    """The table's ``matrix`` over ``ids``, or the matrix given: at least 2 profiles, finite, one column per id.

    A table without rows gives shape (0, len(ids)); the row count is checked
    before the shape, and skipped for a 0-d array, which fails the shape check.
    """
    data = dataset if isinstance(dataset, np.ndarray) else dataset.matrix(ids)
    if data.ndim and len(data) < 2:
        raise DatasetError(f"need at least 2 profiles, got {len(data)}")
    if data.ndim != 2 or data.shape[1] != len(ids):
        raise ValueError(f"profile matrix of shape {data.shape} does not have one column per id ({len(ids)})")
    if not np.isfinite(data).all():
        raise ValueError("profile matrix holds a non-finite value")
    return data


def correlation_matrix(dataset: ScoreTable | np.ndarray, ids: Sequence[CapabilityId]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over profile columns.

    The dataset must already be filtered: every profile complete over
    ``ids``; it may also be given as its ``ScoreTable.matrix``, so a caller
    that needs this table and the p-values builds that matrix once. Constant
    columns yield recorded-undefined (NaN) cells rather than propagating
    through. Symmetric by construction (upper triangle mirrored).
    """
    ids = tuple(ids)
    data = _data_matrix(dataset, ids)
    return CorrelationMatrix(ids=ids, r=_correlations(data))


@dataclass(frozen=True)
class PermutationTestResult:
    statistic: float
    p_value: float

    def __post_init__(self):
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside (0, 1]")


def _stable_order(words: np.ndarray) -> np.ndarray:
    """Each row's stable argsort of the keys ``words >> 11``, by one plain sort.

    ``Generator.random`` turns a raw Philox word w into (w >> 11) / 2**53,
    so these keys order a row exactly as its doubles do. Each key is packed
    above its column index, which takes the low shift = (n - 1).bit_length()
    bits; packed keys are distinct, so an in-place sort orders them as a
    stable argsort orders the keys, and their low bits are that order. Up
    to n = 2048 the 53-bit key and the index fit in 64 bits. Past it the
    packed key keeps only the word's top 64 - shift bits, and rows where
    two kept prefixes tie are re-sorted stably on the full keys.
    """
    n = words.shape[1]
    shift = (n - 1).bit_length()
    drop = max(11, shift)  # low word bits left out of the packed key
    packed = words >> drop
    packed <<= shift
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort(axis=1)
    if drop > 11:
        kept = packed >> shift
        tied = (kept[:, 1:] == kept[:, :-1]).any(axis=1)
    packed &= np.uint64((1 << shift) - 1)
    order = packed.view(np.intp)
    if drop > 11:
        order[tied] = np.argsort(words[tied] >> 11, axis=1, kind="stable")
    return order


def _resample_orders(seed: int, n_resamples: int, n: int):
    """The resample rows in chunks of at most _CHUNK rows.

    Row r is the stable argsort of row r of
    ``Generator(Philox(key=seed)).random((n_resamples, n))``, ordered from
    the raw words that ``random`` would scale.
    """
    bits = np.random.Philox(key=np.uint64(seed))
    for start in range(0, n_resamples, _CHUNK):
        yield _stable_order(bits.random_raw((min(_CHUNK, n_resamples - start), n)))


def _thresholds(reach: np.ndarray, cross: np.ndarray, n: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer bounds (high, low): for integers 0 <= T < top, |n*(n*T - cross)| >= reach exactly where T >= high or T <= low.

    Derived in ``_exceedances``.
    """
    least = -(-np.ceil(reach).astype(np.int64) // n)
    return np.clip(-(-(cross + least) // n), -1, top), np.clip((cross - least) // n, -1, top)


def _exceedances(data: np.ndarray, n_resamples: int, seed: int) -> np.ndarray:
    """Resamples b[i, j], i < j, whose statistic reaches pair (i, j)'s observed one.

    The statistic is |sum(c_i * c_j)| over scale-centred columns; the null
    permutes column j. Every pair sees the same rows: row r is the stable
    argsort of row r of ``Generator(Philox(key=seed)).random((n_resamples,
    n))``, so it depends on (seed, r) only; each chunk's rows come from one
    plain sort of packed raw-word keys (``_stable_order``). A null within
    scipy's relative tolerance of 100 eps below the observed value counts
    as reaching it. Every column is
    counted: a constant one's nulls and observed value are all 0, so its
    count is n_resamples, and the p-value table masks it as undefined.

    On integer scores the product gathers the shifted scores y = x - min(x),
    in float32 when max(y)**2 * n < 2**24 and in float64 otherwise, and
    T = y_i'y_j[pi] is exact (see the module docstring). There the null is
    the integer c_i'c_j[pi] = n*(n*T - S), S = sum(y_i)*sum(y_j), and
    |null| <= sqrt(sum(c_i**2) * sum(c_j**2)) < 2**53, so it converts to a
    double exactly and |null| >= reach is a comparison of integers: it
    holds where |null| >= R = ceil(reach), that is where |n*T - S| >= q =
    ceil(R / n), that is where T >= ceil((S + q) / n) or T <= floor((S - q)
    / n). Both thresholds are computed once per pair in int64 and clipped
    to [-1, top], top = 2**24 for float32 columns and 2**53 for float64, so
    each is exact in the columns' dtype; as 0 <= T < top, the clip changes
    no comparison. Each chunk compares its product with them directly, and
    the counts are those of the nulls. Other input multiplies c.
    """
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    centred, products = _centred_products(data)
    observed = np.abs(products)
    reach = observed - 100 * np.finfo(float).eps * observed  # scipy's tie tolerance
    n, width = centred.shape
    shifted = data - data.min(axis=0)
    sums = shifted.sum(axis=0)
    exact = (
        np.array_equal(shifted, np.rint(shifted))
        and np.array_equal(centred, n * shifted - sums)
        and observed.diagonal().max(initial=0) < 2.0**53
    )
    # columns are stored column-major (order="F"): at 430 x 22 one call took 15.0 ms on 1,000 integer
    # resamples and 16.3 ms on 200 float ones, against 15.9 and 35.2 ms on row-major columns
    if exact:
        # y reproduces c exactly, so the null of the identity row is the observed value;
        # every partial sum of T = y'y[pi] is an integer of at most n * max(y)**2, and below 2**53
        small = shifted.max(initial=0) ** 2 * n < 2**24
        columns = shifted.astype(np.float32 if small else np.float64, order="F")
        cross = np.outer(sums.astype(np.int64), sums.astype(np.int64))
        high, low = (bound.astype(columns.dtype) for bound in _thresholds(reach, cross, n, 2**24 if small else 2**53))

        def reaches(permuted):
            totals = np.matmul(columns.T, permuted)  # T of every pair under every row
            return (totals >= high) | (totals <= low)
    else:
        columns = centred.astype(float, order="F")
        reaches = lambda permuted: np.abs(np.einsum("in,rnj->rij", columns.T, permuted, optimize=False)) >= reach
    counts = np.zeros((width, width), dtype=np.int64)
    # every chunk gathers into one buffer, since a fresh array per chunk raises peak RSS; take fills
    # it in place only in mode "clip" (the default mode buffers), and the orders' indices are in range
    buffer = np.empty((min(_CHUNK, n_resamples), n, width), dtype=columns.dtype)
    for perms in _resample_orders(seed, n_resamples if width > 1 else 0, n):  # no pair: draw nothing
        permuted = np.take(columns, perms, axis=0, out=buffer[: len(perms)], mode="clip")
        counts += np.count_nonzero(reaches(permuted), axis=0)  # [r, i, j]: pair (i, j) under row r
    return np.triu(counts, 1)


def permutation_test(x, y, n_resamples: int = 10_000, seed: int = 0) -> PermutationTestResult:
    """Two-sided Monte Carlo exact test of association via Pearson r.

    The observed statistic is pearson(x, y); the null distribution permutes
    y. The p-value uses the add-one rule p = (b + 1) / (m + 1) with
    b = #{resamples with |r| >= |observed|}, so p is never exactly zero.
    Ties count: exactly on integer scores, and on float input within
    scipy's relative tolerance of 100 eps below |observed|.
    """
    x, y = _as_vector(x), _as_vector(y)
    statistic = pearson(x, y)
    b = int(_exceedances(np.column_stack((x, y)), n_resamples, seed)[0, 1])
    return PermutationTestResult(statistic, (b + 1) / (n_resamples + 1))


def pairwise_permutation_pvalues(
    dataset: ScoreTable | np.ndarray,
    ids: Sequence[CapabilityId],
    n_resamples: int = 10_000,
    seed: int = 0,
) -> CorrelationMatrix:
    """Permutation p-values for every id pair, in correlation-matrix shape.

    All pairs share the run's resample rows (no seed is derived per pair),
    so entry (i, j) equals ``permutation_test(column i, column j,
    n_resamples, seed)`` exactly, and entries are dependent across pairs.
    Pairs touching a constant column are undefined (NaN). The dataset may
    also be given as its ``ScoreTable.matrix``.
    """
    ids = tuple(ids)
    data = _data_matrix(dataset, ids)
    exceed = _exceedances(data, n_resamples, seed)
    live = np.ptp(data, axis=0) > 0
    defined = np.outer(live, live) & ~np.eye(len(ids), dtype=bool)
    p = np.where(defined, (exceed + exceed.T + 1) / (n_resamples + 1), np.nan)
    return CorrelationMatrix(ids=ids, r=p)


class CorrelationStrength(str, Enum):
    WEAK = "weak"
    MODERATE = "moderate"
    STRONG = "strong"


def classify_correlation(r: float) -> CorrelationStrength:
    """weak: |r| < 0.4; moderate: 0.4 <= |r| < 0.8; strong: |r| >= 0.8."""
    if not abs(r) <= 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    magnitude = abs(r)
    if magnitude < 0.4:
        return CorrelationStrength.WEAK
    if magnitude < 0.8:
        return CorrelationStrength.MODERATE
    return CorrelationStrength.STRONG
