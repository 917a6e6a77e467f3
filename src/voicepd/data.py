"""Labeled feature datasets, z-score standardization, and CSV interchange."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio_io import parse_label, read_table
from .errors import DataError
from .features import FEATURE_NAMES

CLASS_NAMES = {0: "0 (Med Off)", 1: "1 (Healthy)", 2: "2 (Med On)"}


def label_classes(labels: np.ndarray) -> np.ndarray:
    """The classes a label array in {0, 1, 2} holds, ascending.

    Unlike np.unique, this does not make numpy import numpy.ma.
    """
    return np.flatnonzero(np.bincount(labels, minlength=3))


@dataclass
class LabeledDataset:
    features: np.ndarray          # (n_samples, n_features)
    labels: np.ndarray            # (n_samples,) ints in {0, 1, 2}
    feature_names: list[str] = field(default_factory=lambda: list(FEATURE_NAMES))

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        # before the cast, which would truncate 1.7 to 1 and turn nan or inf into some integer
        if not ((labels == 0) | (labels == 1) | (labels == 2)).all():
            raise DataError("labels must be in {0, 1, 2}")
        self.labels = labels.astype(np.int64, copy=False)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D array")
        if len(self.features) != len(self.labels):
            raise DataError("features and labels must have equal length")
        if self.features.shape[1] != len(self.feature_names):
            raise DataError("feature_names length must match feature columns")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            feature_names=list(self.feature_names),
        )

    def select_features(self, mask: np.ndarray) -> "LabeledDataset":
        mask = np.asarray(mask, dtype=bool)
        names = [n for n, keep in zip(self.feature_names, mask) if keep]
        return LabeledDataset(self.features[:, mask], self.labels, names)

    def class_counts(self) -> dict[int, int]:
        return {c: int(np.count_nonzero(self.labels == c)) for c in (0, 1, 2)}


@dataclass
class Standardizer:
    """Per-feature z-scoring fitted on training data.

    Zero-variance features pass through unscaled (std pinned to 1).  A column
    whose mean or std overflows float64 is a DataError.
    """

    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "Standardizer":
        features = np.asarray(features, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = features.mean(axis=0)
            std = features.std(axis=0)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if len(bad):
            raise DataError(f"feature column {bad[0] + 1} of the training data is too large "
                            "to standardize: its mean or standard deviation overflows float64")
        std[std == 0.0] = 1.0
        self.mean, self.std = mean, std
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise DataError("standardizer not fitted")
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


def open_output(path: str, mode: str = "w"):
    """Open a text file for writing ("w") or appending ("a"); a path that cannot
    be created is a DataError."""
    try:
        return open(path, mode, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc.strerror}") from None


def save_feature_csv(path: str, dataset: LabeledDataset) -> None:
    with open_output(path) as fh:
        fh.write(",".join(list(dataset.feature_names) + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def load_feature_csv(path: str) -> LabeledDataset:
    header, table = read_table(path, "feature CSV", header_required=True)
    names = header[:-1]
    if not names:
        raise DataError(f"feature CSV {path!r} has no feature column")
    unnamed = next((j for j, n in enumerate(names) if not n), None)
    if unnamed is not None:
        raise DataError(f"feature CSV {path!r} has no name for column {unnamed + 1}")
    repeated = next((n for i, n in enumerate(header) if n in header[:i]), None)
    if repeated is not None:
        raise DataError(f"feature CSV {path!r} has more than one column named {repeated!r}")
    linenos, rows, labels = [], [], []
    for lineno, parts in table:
        if len(parts) != len(header):
            raise DataError(f"{path!r} line {lineno}: expected {len(header)} fields")
        try:
            rows.append([float(v) for v in parts[:-1]])
        except ValueError as exc:
            raise DataError(f"{path!r} line {lineno}: {exc}") from None
        labels.append(parse_label(parts[-1], path, lineno))
        linenos.append(lineno)
    features = np.array(rows) if rows else np.empty((0, len(names)))
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):  # float() accepts nan, inf and 1e999, which extract never writes
        i, j = bad[0]
        raise DataError(f"{path!r} line {linenos[i]}: {names[j]} is {features[i, j]}, "
                        "not a finite number")
    return LabeledDataset(features=features, labels=np.array(labels, dtype=np.int64),
                          feature_names=names)
