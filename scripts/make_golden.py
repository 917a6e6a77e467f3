#!/usr/bin/env python3
"""Write tests/golden/outputs.json, the pinned outputs of the benchmark workloads.

Runs the commands of the `extract`, `evaluate-small` and `evaluate-large`
workloads for one data seed, on the inputs `perfbench/workloads.py`
generates, and records:
- the feature rows and labels `extract` writes, and the recordings it rejects;
- every confusion matrix of every `evaluate` report.

tests/test_golden.py runs the same commands and compares.  A change that
moves a pinned value regenerates the file and says why.

Usage:
    PYTHONPATH=src python3 scripts/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"
SEED = 0

sys.path.insert(0, str(ROOT / "perfbench"))  # the workload generator
import workloads  # noqa: E402

from voicepd import cli  # noqa: E402
from voicepd.data import load_feature_csv  # noqa: E402


def _run(command: workloads.Command) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command.argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(command.argv)} exited {code}")


def collect(workdir: Path) -> dict:
    """The pinned values of every workload, from inputs written under `workdir`."""
    out: dict = {"seed": SEED}
    inputs = workloads.generate("extract", workdir / "extract", SEED)
    (command,) = inputs.commands
    _run(command)
    dataset = load_feature_csv(str(command.output))
    sidecar = Path(str(command.output) + ".rejects.csv").read_text(encoding="utf-8")
    out["extract"] = {
        "rows": dataset.features.tolist(),
        "labels": dataset.labels.tolist(),
        "rejects": sorted(Path(line.split(",")[0]).name for line in sidecar.splitlines()[1:]),
    }
    for name in ("evaluate-small", "evaluate-large"):
        out[name] = {}
        for command in workloads.generate(name, workdir / name, SEED).commands:
            _run(command)
            report = json.loads(command.output.read_text(encoding="utf-8"))
            out[name][report["model"]] = {
                "holdout": report["holdout_confusion_matrix"],
                "pooled": report["cv"]["pooled_confusion_matrix"],
                "folds": report["cv"]["fold_confusion_matrices"],
            }
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = collect(Path(tmp))
    text = json.dumps(golden, indent=1, sort_keys=True)
    # one line per innermost list: a feature row, a matrix row, the rejects
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
