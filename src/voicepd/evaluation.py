"""Stratified splitting, k-fold cross-validation, confusion matrices and
per-class precision/recall/F1 reports."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .classifiers import TrainedModel, train_many
from .data import CLASS_NAMES, LabeledDataset, label_classes
from .errors import DataError
from .selection import DEFAULT_BINS, chi2_scores, select_top_k

log = logging.getLogger(__name__)

N_CLASSES = 3
# the holdout share of the rows, and the folds of the CV on the rest
DEFAULT_TEST_FRACTION = 0.15
DEFAULT_CV_K = 10


@dataclass
class ConfusionMatrix:
    """3x3 count table, rows = actual class, columns = predicted class."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64))

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise DataError("confusion matrix must be 3x3")
        if np.any(self.counts < 0):
            raise DataError("confusion matrix entries must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def add(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)

    def to_lists(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.counts]


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    zero_denominator: bool = False


@dataclass
class MetricsReport:
    per_class: dict[int, ClassMetrics]
    accuracy: float
    model_id: str = ""
    fold_id: str = ""

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {
                CLASS_NAMES[c]: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "zero_denominator": m.zero_denominator,
                }
                for c, m in self.per_class.items()
            },
            "model": self.model_id,
            "fold": self.fold_id,
        }


def metrics(cm: ConfusionMatrix, model_id: str = "", fold_id: str = "") -> MetricsReport:
    """Per-class precision/recall/F1 and overall accuracy from a count table."""
    if cm.total == 0:
        raise DataError("cannot compute metrics on an empty confusion matrix")
    per_class = {}
    for c in range(N_CLASSES):
        col = int(cm.counts[:, c].sum())
        row = int(cm.counts[c, :].sum())
        tp = int(cm.counts[c, c])
        flag = col == 0 or row == 0
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[c] = ClassMetrics(precision=precision, recall=recall, f1=f1,
                                    zero_denominator=flag)
    accuracy = float(np.trace(cm.counts)) / cm.total
    return MetricsReport(per_class=per_class, accuracy=accuracy,
                         model_id=model_id, fold_id=fold_id)


def evaluate(model: TrainedModel, dataset: LabeledDataset) -> ConfusionMatrix:
    cells = N_CLASSES * dataset.labels + model.predict(dataset.features)
    return ConfusionMatrix(np.bincount(cells, minlength=N_CLASSES * N_CLASSES)
                           .reshape(N_CLASSES, N_CLASSES))


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split(dataset: LabeledDataset, test_fraction: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (train, test); per-class test counts are rounded and then
    adjusted by largest/smallest fractional remainder to hit the global target."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    if n == 0:
        raise DataError("the dataset has no rows to split")
    target = _round_half_up(n * test_fraction)
    if not 0 < target < n:
        side = "holdout" if target == 0 else "training"
        raise DataError(f"test_fraction {test_fraction} of {n} rows leaves an empty {side} set")
    classes = label_classes(dataset.labels).tolist()
    exact = {c: np.count_nonzero(dataset.labels == c) * test_fraction for c in classes}
    counts = {c: _round_half_up(exact[c]) for c in classes}
    frac = {c: exact[c] - np.floor(exact[c]) for c in classes}
    while sum(counts.values()) < target:
        c = max(classes, key=lambda c: (frac[c], -c))
        counts[c] += 1
        frac[c] -= 1.0
    while sum(counts.values()) > target:
        c = min(classes, key=lambda c: (frac[c], c))
        if counts[c] > 0:
            counts[c] -= 1
        frac[c] += 1.0
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    for c in classes:
        members = np.flatnonzero(dataset.labels == c)
        if counts[c] == 0 and len(members) * test_fraction >= 0.5:
            log.warning("class %d contributes no test samples", c)
        perm = rng.permutation(len(members))
        test_idx.extend(members[perm[: counts[c]]].tolist())
    test = np.array(sorted(test_idx), dtype=np.int64)
    train_mask = np.ones(n, dtype=bool)
    train_mask[test] = False
    return np.flatnonzero(train_mask), test


def kfold(dataset: LabeledDataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified folds as (train_idx, test_idx) pairs.

    Per class, each fold gets floor(n_c/k) samples; the remainders go to the
    currently smallest folds, which balances total fold sizes to within one.
    """
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    counts = {c: n for c, n in dataset.class_counts().items() if n > 0}
    if not counts:
        raise DataError("the dataset has no rows to split into folds")
    smallest = min(counts.values())
    if k > smallest:
        raise DataError(
            f"k={k} exceeds smallest class count {smallest}; use k <= {smallest}"
        )
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in sorted(counts):
        members = np.flatnonzero(dataset.labels == c)
        perm = members[rng.permutation(len(members))]
        base, extra = divmod(len(perm), k)
        order = sorted(range(k), key=lambda f: (len(folds[f]), f))
        quota = {f: base for f in range(k)}
        for f in order[:extra]:
            quota[f] += 1
        pos = 0
        for f in range(k):
            folds[f].extend(perm[pos:pos + quota[f]].tolist())
            pos += quota[f]
    out = []
    n = len(dataset)
    for f in range(k):
        test = np.array(sorted(folds[f]), dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        out.append((np.flatnonzero(mask), test))
    return out


@dataclass
class CVResult:
    pooled: MetricsReport
    pooled_cm: ConfusionMatrix
    fold_reports: list[MetricsReport]
    fold_cms: list[ConfusionMatrix]


def _fit_and_score(algorithm: str, splits: list[tuple[LabeledDataset, LabeledDataset]],
                   seed: int, hyperparams: dict | None, bins: int,
                   top_k: int | None) -> list[ConfusionMatrix]:
    """Confusion matrix of each (train, test) split: chi2 selection (when
    top_k is below the feature count) and standardization are fitted on the
    training rows only, and all the models are trained in one batch."""
    selected = []
    for train_ds, test_ds in splits:
        if top_k is not None and top_k < train_ds.n_features:
            mask = select_top_k(chi2_scores(train_ds, bins=bins), top_k)
            train_ds, test_ds = train_ds.select_features(mask), test_ds.select_features(mask)
        selected.append((train_ds, test_ds))
    models = train_many(algorithm, [train_ds for train_ds, _ in selected], hyperparams, seed=seed)
    return [evaluate(model, test_ds) for model, (_, test_ds) in zip(models, selected)]


def _fold_splits(dataset: LabeledDataset, k: int, seed: int):
    return [(dataset.subset(train_idx), dataset.subset(test_idx))
            for train_idx, test_idx in kfold(dataset, k, seed)]


def _cv_result(algorithm: str, fold_cms: list[ConfusionMatrix]) -> CVResult:
    pooled = ConfusionMatrix()
    for cm in fold_cms:
        pooled = pooled.add(cm)
    return CVResult(
        pooled=metrics(pooled, model_id=algorithm, fold_id="pooled"),
        pooled_cm=pooled,
        fold_reports=[metrics(cm, model_id=algorithm, fold_id=str(fold_id))
                      for fold_id, cm in enumerate(fold_cms)],
        fold_cms=fold_cms,
    )


def cross_validate(algorithm: str, dataset: LabeledDataset, k: int, seed: int,
                   hyperparams: dict | None = None, bins: int = DEFAULT_BINS,
                   top_k: int | None = None) -> CVResult:
    """Stratified k-fold CV; chi2 selection and standardization are refitted
    inside each fold on its training rows only."""
    splits = _fold_splits(dataset, k, seed)
    return _cv_result(algorithm, _fit_and_score(algorithm, splits, seed, hyperparams, bins, top_k))


def run_experiment(dataset: LabeledDataset, algorithm: str, seed: int,
                   test_fraction: float = DEFAULT_TEST_FRACTION, cv_k: int = DEFAULT_CV_K,
                   hyperparams: dict | None = None, bins: int = DEFAULT_BINS,
                   top_k: int | None = None) -> dict:
    """Holdout split, CV on the training portion, holdout evaluation of a
    final model trained on all training rows.  Returns the JSON-ready report.

    The k fold models and the final model are trained in one batch."""
    train_idx, test_idx = stratified_split(dataset, test_fraction, seed)
    train_ds = dataset.subset(train_idx)
    splits = _fold_splits(train_ds, cv_k, seed) + [(train_ds, dataset.subset(test_idx))]
    cms = _fit_and_score(algorithm, splits, seed, hyperparams, bins, top_k)
    cv = _cv_result(algorithm, cms[:-1])
    holdout_cm = cms[-1]
    holdout = metrics(holdout_cm, model_id=algorithm, fold_id="holdout")
    return {
        "model": algorithm,
        "seed": seed,
        "holdout": holdout.to_dict(),
        "holdout_confusion_matrix": holdout_cm.to_lists(),
        "cv": {
            "pooled": cv.pooled.to_dict(),
            "pooled_confusion_matrix": cv.pooled_cm.to_lists(),
            "folds": [r.to_dict() for r in cv.fold_reports],
            "fold_confusion_matrices": [cm.to_lists() for cm in cv.fold_cms],
        },
    }
