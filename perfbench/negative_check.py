#!/usr/bin/env python3
"""Show that the output checks catch wrong outputs.

Runs `extract` and `evaluate --algorithm knn` on seed 0 of their
workloads, checks the genuine outputs, then checks a feature CSV with one
value changed by one part in 10^4 and a report with one test row's actual
label flipped.  Exits 0 only if the genuine outputs pass and each
corruption raises the error rate.

    python3 perfbench/negative_check.py
"""

from __future__ import annotations

import bootstrap

bootstrap.pin_environment()  # before numpy is imported

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _corrupt_features(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-4))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _flip_label(path: Path) -> None:
    """Move one holdout row from its actual class to the next one."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    cm = doc["holdout_confusion_matrix"]
    row = next(i for i, r in enumerate(cm) if sum(r) > 0)
    col = next(j for j, v in enumerate(cm[row]) if v > 0)
    cm[row][col] -= 1
    cm[(row + 1) % 3][col] += 1
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    reference = checks.load_reference()
    header = reference["extract"]["header"]
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="negative-", dir=run.WORK_ROOT))
    try:
        extract = workloads.generate("extract", work / "extract", 0).commands[0]
        knn = workloads.generate("evaluate-small", work / "evaluate", 0).commands[0]
        ref_x = reference["extract"]["0"]
        ref_knn = reference["evaluate-small"]["0"]["reports"]["knn"]

        def check(ledger: run.Ledger) -> float:
            ledger.record("features", checks.check_features(extract.output, header, ref_x))
            ledger.record("report knn", checks.check_report(knn.output, "knn", ref_knn))
            return ledger.error_rate

        genuine = run.Ledger()
        for command in (extract, knn):
            run.run_command(command, genuine)
        genuine_rate = check(genuine)

        genuine_features = extract.output.read_bytes()
        _corrupt_features(extract.output)
        features_rate = check(run.Ledger())
        extract.output.write_bytes(genuine_features)
        _flip_label(knn.output)
        label_rate = check(run.Ledger())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"error_rate genuine outputs:           {genuine_rate:.3f}")
    print(f"error_rate one feature value changed:  {features_rate:.3f}")
    print(f"error_rate one report label flipped:   {label_rate:.3f}")
    ok = genuine_rate == 0.0 and features_rate > genuine_rate and label_rate > genuine_rate
    print("negative check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
