"""Pearson correlation, Monte Carlo exact permutation tests, classification.

Determinism contract: every stochastic routine is a pure function of its
inputs and an explicit integer seed. Resample ``i`` is row ``i`` of a single
counter-based (Philox) stream keyed by the seed, drawn in fixed chunks of
rows; a p-value table applies the same rows to every pair (no seed is
derived per pair), so its entries are dependent across pairs. Statistics are
plain einsum reductions, so results are bit-identical across runs and
across BLAS/OpenMP thread settings.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DatasetError, UndefinedCorrelationError
from .profiles import ProfileDataset
from .taxonomy import CapabilityId

__all__ = [
    "CorrelationMatrix",
    "PermutationTestResult",
    "CorrelationStrength",
    "pearson",
    "profile_matrix",
    "correlation_matrix",
    "permutation_test",
    "pairwise_permutation_pvalues",
    "classify_correlation",
]

_CHUNK = 256  # resample rows drawn, argsorted and applied at a time


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-d vector, got shape {arr.shape}")
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
    x = _as_vector(x)
    y = _as_vector(y)
    _check_pair(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    sxy = float(np.einsum("i,i->", xc, yc))
    sxx = float(np.einsum("i,i->", xc, xc))
    syy = float(np.einsum("i,i->", yc, yc))
    r = sxy / np.sqrt(sxx * syy)
    return float(min(1.0, max(-1.0, r)))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Square symmetric correlation matrix over an ordered id list.

    Cells touching a constant column are undefined and stored as NaN;
    ``pair`` returns None for them. The diagonal is 1 exactly where the
    column is non-constant.
    """

    ids: tuple[CapabilityId, ...]
    r: np.ndarray
    n_samples: int

    def __post_init__(self):
        if self.r.shape != (len(self.ids), len(self.ids)):
            raise ValueError("matrix shape does not match id list")

    def index_of(self, cap_id: CapabilityId) -> int:
        try:
            return self.ids.index(cap_id)
        except ValueError:
            raise KeyError(f"id {cap_id} not in correlation matrix") from None

    def pair(self, a: CapabilityId, b: CapabilityId) -> float | None:
        try:
            value = self.r[self.index_of(a), self.index_of(b)]
        except KeyError:
            return None
        return None if np.isnan(value) else float(value)

    def undefined_ids(self) -> list[CapabilityId]:
        return [cap for i, cap in enumerate(self.ids) if np.isnan(self.r[i, i])]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["id"] + [str(c) for c in self.ids])
        for i, cap in enumerate(self.ids):
            row = [str(cap)]
            for j in range(len(self.ids)):
                value = self.r[i, j]
                row.append("" if np.isnan(value) else f"{value:.6f}")
            writer.writerow(row)
        return buffer.getvalue()


def profile_matrix(dataset: ProfileDataset, ids: Sequence[CapabilityId]) -> np.ndarray:
    """Profiles x ids float matrix; every profile must be complete over ``ids``.

    Both table functions below accept this matrix in place of the dataset,
    so a caller that needs both builds it once.
    """
    if len(dataset) < 2:
        raise DatasetError(f"need at least 2 profiles, got {len(dataset)}")
    rows = []
    for profile in dataset:
        missing = profile.missing_from(ids)
        if missing:
            raise DatasetError(
                f"profile {profile.agent_id}/{profile.phase.value} incomplete over ids: "
                + ", ".join(str(m) for m in missing)
            )
        rows.append([profile.values[cap] for cap in ids])
    return np.array(rows, dtype=float)


def correlation_matrix(dataset: ProfileDataset | np.ndarray, ids: Sequence[CapabilityId]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over profile columns.

    The dataset must already be filtered: every profile complete over
    ``ids``; it may also be given as its ``profile_matrix``. Constant
    columns yield recorded-undefined (NaN) cells rather than propagating
    through. Symmetric by construction (upper triangle mirrored).
    """
    ids = tuple(ids)
    data = dataset if isinstance(dataset, np.ndarray) else profile_matrix(dataset, ids)
    centred = data - data.mean(axis=0)
    products = np.einsum("ki,kj->ij", centred, centred, optimize=False)
    sums = np.diag(products)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(products / np.sqrt(np.outer(sums, sums)), -1.0, 1.0)
    r = np.triu(r) + np.triu(r, 1).T
    constant = np.ptp(data, axis=0) == 0
    r[constant] = np.nan
    r[:, constant] = np.nan
    return CorrelationMatrix(ids=ids, r=r, n_samples=len(data))


@dataclass(frozen=True)
class PermutationTestResult:
    statistic: float
    p_value: float
    n_resamples: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside (0, 1]")


def _permutation_pvalues(
    columns: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]], n_resamples: int, seed: int
) -> np.ndarray:
    """Add-one Monte Carlo p-value of pearson(columns[i], columns[j]) per pair (i, j).

    The null permutes column j. Every pair sees the same resample rows:
    row r is argsort of row r of the Philox stream keyed by ``seed``, so it
    depends on (seed, r) only, however many pairs share it.
    """
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    centred = [c - c.mean() for c in columns]
    sums = [float(np.einsum("i,i->", c, c)) for c in centred]
    tests_by_y = {}
    for k, (i, j) in enumerate(pairs):
        observed = abs(pearson(columns[i], columns[j]))
        tests_by_y.setdefault(j, []).append((k, centred[i], np.sqrt(sums[i] * sums[j]), observed))
    exceed = np.zeros(len(pairs), dtype=np.int64)
    bits = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    for start in range(0, n_resamples if pairs else 0, _CHUNK):  # no defined pair: draw nothing
        keys = bits.random((min(_CHUNK, n_resamples - start), len(columns[0])))
        perms = np.argsort(keys, axis=1, kind="stable")
        for j, tests in tests_by_y.items():
            permuted = centred[j][perms]
            for k, xc, denom, observed in tests:
                null_r = np.einsum("ij,j->i", permuted, xc) / denom
                exceed[k] += np.sum(np.abs(null_r) >= observed)
    return (exceed + 1) / (n_resamples + 1)


def permutation_test(x, y, n_resamples: int = 10_000, seed: int = 0) -> PermutationTestResult:
    """Two-sided Monte Carlo exact test of association via Pearson r.

    The observed statistic is pearson(x, y); the null distribution permutes
    y. The p-value uses the add-one rule p = (b + 1) / (m + 1) with
    b = #{resamples with |r| >= |observed|}, so p is never exactly zero.
    """
    x = _as_vector(x)
    y = _as_vector(y)
    p = _permutation_pvalues([x, y], [(0, 1)], n_resamples, seed)
    return PermutationTestResult(
        statistic=pearson(x, y), p_value=float(p[0]), n_resamples=n_resamples, seed=seed
    )


def pairwise_permutation_pvalues(
    dataset: ProfileDataset | np.ndarray,
    ids: Sequence[CapabilityId],
    n_resamples: int = 10_000,
    seed: int = 0,
) -> CorrelationMatrix:
    """Permutation p-values for every id pair, in correlation-matrix shape.

    All pairs share the run's resample rows (no seed is derived per pair),
    so entry (i, j) equals ``permutation_test(column i, column j,
    n_resamples, seed)`` exactly, and entries are dependent across pairs.
    Pairs touching a constant column are undefined (NaN). The dataset may
    also be given as its ``profile_matrix``.
    """
    ids = tuple(ids)
    data = dataset if isinstance(dataset, np.ndarray) else profile_matrix(dataset, ids)
    constant = np.ptp(data, axis=0) == 0
    n = len(ids)
    pairs = [(i, j) for j in range(n) for i in range(j) if not (constant[i] or constant[j])]
    pvalues = _permutation_pvalues([data[:, k] for k in range(n)], pairs, n_resamples, seed)
    p = np.full((n, n), np.nan)
    for (i, j), value in zip(pairs, pvalues):
        p[i, j] = p[j, i] = value
    return CorrelationMatrix(ids=ids, r=p, n_samples=len(data))


class CorrelationStrength(str, Enum):
    WEAK = "weak"
    MODERATE = "moderate"
    STRONG = "strong"


def classify_correlation(r: float) -> CorrelationStrength:
    """weak: |r| < 0.4; moderate: 0.4 <= |r| < 0.8; strong: |r| >= 0.8."""
    if abs(r) > 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    magnitude = abs(r)
    if magnitude < 0.4:
        return CorrelationStrength.WEAK
    if magnitude < 0.8:
        return CorrelationStrength.MODERATE
    return CorrelationStrength.STRONG
