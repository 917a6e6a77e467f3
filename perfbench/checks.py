"""Output checks against the committed reference (`reference.json`).

Each check returns a list of problems; an empty list means the output
matches.  Tolerances:

- feature values: relative 1e-6 (plus 1e-12 absolute), so summation-order
  changes pass and any real change to a feature does not;
- accuracies: within `ACCURACY_TOL` or two test rows, whichever is larger,
  which admits predictions flipped by float reassociation in a trainer;
- everything that does not depend on float arithmetic (rows, labels,
  rejected recordings, fold count, per-class test counts of every split,
  confusion-matrix bookkeeping) must match exactly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

FEATURE_RTOL = 1e-6
FEATURE_ATOL = 1e-12
ACCURACY_TOL = 0.05
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_inputs(sha256: str, ref: dict) -> list[str]:
    if sha256 != ref["inputs_sha256"]:
        return [f"generated inputs differ from the reference (sha256 {sha256[:12]})"]
    return []


def check_features(path: Path, header: list[str], ref: dict) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"features: cannot read {path.name}: {exc}"]
    if not lines or lines[0].split(",") != header:
        return ["features: header differs from the reference"]
    want_labels = ref["labels"]
    if len(lines) - 1 != len(want_labels):
        return [f"features: {len(lines) - 1} rows, reference has {len(want_labels)}"]
    try:
        parts = [line.split(",") for line in lines[1:]]
        values = np.array([[float(v) for v in p[:-1]] for p in parts])
        labels = [int(p[-1]) for p in parts]
    except ValueError as exc:
        return [f"features: unparsable value ({exc})"]
    problems = []
    if labels != want_labels:
        problems.append("features: labels differ from the reference")
    want = np.array(ref["features"])
    if values.shape != want.shape:
        return problems + [f"features: shape {values.shape}, reference {want.shape}"]
    bad = ~np.isclose(values, want, rtol=FEATURE_RTOL, atol=FEATURE_ATOL)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        problems.append(f"features: {int(bad.sum())} values off, first at row {r} "
                        f"{header[c]}: {float(values[r, c])!r} vs {float(want[r, c])!r}")
    return problems


def rejected_names(sidecar: Path) -> list[str]:
    lines = sidecar.read_text(encoding="utf-8").splitlines()[1:]
    return sorted(os.path.basename(line.split(",", 1)[0]) for line in lines if line)


def check_rejects(sidecar: Path, ref: dict) -> list[str]:
    try:
        names = rejected_names(sidecar)
    except OSError as exc:
        return [f"rejects: cannot read {sidecar.name}: {exc}"]
    if names != sorted(ref["rejects"]):
        return [f"rejects: {names}, reference {sorted(ref['rejects'])}"]
    return []


def check_reject_classes(observed: dict[str, str], ref: dict) -> list[str]:
    """`observed` maps recording name to the exception class a traced pass saw."""
    if observed != ref["rejects"]:
        return [f"reject classes: {observed}, reference {ref['rejects']}"]
    return []


def _row_sums(cm) -> list[int]:
    return [int(v) for v in np.asarray(cm).sum(axis=1)]


def report_summary(doc: dict) -> dict:
    """The parts of a report that the reference keeps."""
    return {
        "holdout_accuracy": float(doc["holdout"]["accuracy"]),
        "cv_accuracy": float(doc["cv"]["pooled"]["accuracy"]),
        "holdout_rows": _row_sums(doc["holdout_confusion_matrix"]),
        "fold_rows": [_row_sums(cm) for cm in doc["cv"]["fold_confusion_matrices"]],
    }


def check_report(path: Path, algorithm: str, ref: dict) -> list[str]:
    name = f"report {algorithm}"
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        got = report_summary(doc)
        holdout_cm = np.array(doc["holdout_confusion_matrix"], dtype=np.int64)
        fold_cms = np.array(doc["cv"]["fold_confusion_matrices"], dtype=np.int64)
        pooled_cm = np.array(doc["cv"]["pooled_confusion_matrix"], dtype=np.int64)
        n_folds = len(doc["cv"]["folds"])
        model = doc["model"]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{name}: unreadable ({type(exc).__name__}: {exc})"]
    problems = []
    if model != algorithm:
        problems.append(f"{name}: model {model!r}")
    if n_folds != len(ref["fold_rows"]) or len(fold_cms) != len(ref["fold_rows"]):
        problems.append(f"{name}: {n_folds} folds, reference {len(ref['fold_rows'])}")
    if got["holdout_rows"] != ref["holdout_rows"] or got["fold_rows"] != ref["fold_rows"]:
        problems.append(f"{name}: per-class test counts differ from the reference")
    if fold_cms.ndim != 3 or not np.array_equal(fold_cms.sum(axis=0), pooled_cm):
        problems.append(f"{name}: pooled confusion matrix is not the sum of the folds")
    for part, cm in (("holdout", holdout_cm), ("cv", pooled_cm)):
        total = int(cm.sum())
        accuracy = got[f"{part}_accuracy"]
        if total == 0 or abs(accuracy - np.trace(cm) / total) > 1e-12:
            problems.append(f"{name}: {part} accuracy disagrees with its confusion matrix")
            continue
        tol = max(ACCURACY_TOL, 2.0 / total)
        if abs(accuracy - ref[f"{part}_accuracy"]) > tol:
            problems.append(f"{name}: {part} accuracy {accuracy:.4f}, reference "
                            f"{ref[f'{part}_accuracy']:.4f} (tolerance {tol:.4f})")
    return problems
