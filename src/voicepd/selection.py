"""Chi-square feature scoring against the class label.

Each feature is discretized into equal-width bins over its observed range
and scored by the chi-square statistic of the bins x classes contingency
table.  Constant features score 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, label_classes
from .errors import DataError

# equal-width bins per feature
DEFAULT_BINS = 10


@dataclass(frozen=True)
class FeatureScore:
    feature_index: int
    feature_name: str
    chi2: float
    rank: int  # 1 = best


def chi2_statistic(observed: np.ndarray) -> float:
    """Chi-square statistic of a contingency table; zero-expected cells skipped."""
    observed = np.asarray(observed, dtype=np.float64)
    total = observed.sum()
    if total == 0:
        return 0.0
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0.0, (observed - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def _bin_column(values: np.ndarray, bins: int, name: str) -> np.ndarray:
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        return np.zeros(len(values), dtype=np.int64)
    if not math.isfinite(hi - lo):
        raise DataError(f"feature {name!r} spans {lo!r} to {hi!r}, a range beyond float64; "
                        "cannot bin it")
    idx = np.floor((values - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def chi2_scores(dataset: LabeledDataset, bins: int = DEFAULT_BINS) -> list[FeatureScore]:
    """Score and rank every feature, descending chi2, ties by lower index."""
    if len(dataset) == 0:
        raise DataError("cannot score an empty dataset")
    if bins < 2:
        raise DataError(f"bins must be >= 2, got {bins}")
    classes = label_classes(dataset.labels)
    n_classes = len(classes)
    # each row's column in the (bins, classes) table: its label's rank among the classes
    column = np.searchsorted(classes, dataset.labels)
    stats = []
    for j in range(dataset.n_features):
        binned = _bin_column(dataset.features[:, j], bins, dataset.feature_names[j])
        table = np.bincount(binned * n_classes + column, minlength=bins * n_classes)
        stats.append(chi2_statistic(table.reshape(bins, n_classes)))
    order = sorted(range(dataset.n_features), key=lambda j: (-stats[j], j))
    scores = [None] * dataset.n_features
    for rank0, j in enumerate(order):
        scores[j] = FeatureScore(
            feature_index=j,
            feature_name=dataset.feature_names[j],
            chi2=stats[j],
            rank=rank0 + 1,
        )
    return scores


def select_top_k(scores: list[FeatureScore], k: int) -> np.ndarray:
    """Boolean mask keeping the k best-ranked features."""
    n = len(scores)
    if not 1 <= k <= n:
        raise DataError(f"k must be in [1, {n}], got {k}")
    mask = np.zeros(n, dtype=bool)
    mask[[s.feature_index for s in scores if s.rank <= k]] = True
    return mask
