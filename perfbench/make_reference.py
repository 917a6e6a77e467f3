#!/usr/bin/env python3
"""Regenerate `reference.json` from the program as it is now.

Runs each workload once per data seed (0 .. N_DATA_SEEDS-1) and keeps
what the checks compare: input digests, feature values (10 significant
digits), rejected recordings with their exception class, and per report
the accuracies and per-class test counts.  Only a change to the benchmark
itself should regenerate it.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import bootstrap

bootstrap.pin_environment()  # before numpy is imported

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_entry(name: str, seed: int, directory: Path) -> dict:
    inputs = workloads.generate(name, directory, seed)
    ledger = run.Ledger()
    tracer = tracing.Tracer()
    with tracer.installed():
        for command in inputs.commands:
            run.run_command(command, ledger, tracer)
    if ledger.failed:
        sys.exit(f"{name} seed {seed}: a command failed")
    entry = {"inputs_sha256": inputs.sha256()}
    if name == "extract":
        out = inputs.commands[0].output
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        entry["labels"] = [int(r[-1]) for r in rows]
        entry["features"] = [[float(f"{float(v):.10g}") for v in r[:-1]] for r in rows]
        entry["rejects"] = {os.path.basename(p): e
                            for p, _, e in tracing.recordings(tracer.spans) if e}
        sidecar = Path(str(out) + ".rejects.csv")
        if checks.rejected_names(sidecar) != sorted(entry["rejects"]):
            sys.exit(f"{name} seed {seed}: rejects sidecar disagrees with the trace")
    else:
        entry["reports"] = {}
        for command in inputs.commands:
            with open(command.output, encoding="utf-8") as fh:
                doc = json.load(fh)
            entry["reports"][doc["model"]] = checks.report_summary(doc)
    return entry


def _dump(reference: dict) -> str:
    """One line per workload seed, so a diff shows which seeds changed."""
    blocks = []
    for name, entries in reference.items():
        lines = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                 for k, v in entries.items()]
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join("  " + ln for ln in lines)
                      + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT))
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            entries = {}
            for seed in range(workloads.N_DATA_SEEDS):
                entries[str(seed)] = reference_entry(name, seed, work / f"{name}-{seed}")
                print(f"{name} seed {seed}: done", flush=True)
            if name == "extract":
                header = (work / "extract-0" / "features.csv").read_text(encoding="utf-8")
                entries = {"header": header.splitlines()[0].split(","), **entries}
            reference[name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(_dump(reference), encoding="utf-8")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
