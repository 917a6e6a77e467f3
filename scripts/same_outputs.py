#!/usr/bin/env python3
"""Check that this tree and another checkout write byte-identical files.

For the chosen data seeds, runs every command of the benchmark workloads
with this tree's `src/` and with OTHER_TREE's `src/`, each tree in a child
process of its own.  Each child first writes the workload inputs with this
checkout's `perfbench/workloads.py` and its own `voicepd` (the WAV corpus
and manifest of `extract`, the feature tables of `evaluate-small` and
`evaluate-large`), so a change to `voicepd.synth` shows too.  Both children
work in the same directory, one after the other, so the manifests name the
same paths.  Then compares the files they wrote: the inputs, the feature
CSV and its rejects sidecar per `extract` run, and one report JSON per
`evaluate` run (160 reports over the default 16 seeds).  Prints each file
that differs or exists on one side only, and exits 1 if there is any, 0 if
there is none.

Usage:
    python3 scripts/same_outputs.py OTHER_TREE [--seeds 0 1 ...] [--workloads extract ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # the workload generator
import bootstrap  # noqa: E402

bootstrap.pin_environment()  # one BLAS thread here and in both children

import workloads  # noqa: E402

# writes the inputs of each workload and seed under <workload>/seed<seed>/
# of its working directory with the voicepd on its path, and runs their
# commands through that voicepd's CLI, which write their outputs next to the
# inputs; prints where voicepd came from, then "<output path> <exit code>"
# per command
_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
job = json.load(sys.stdin)
sys.path.insert(0, job["perfbench"])
import voicepd, workloads
from voicepd import cli
print(voicepd.__file__)
work = Path.cwd()
for name in job["workloads"]:
    for seed in job["seeds"]:
        for command in workloads.generate(name, work / name / f"seed{seed}", seed).commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(command.argv)
            print(command.output.relative_to(work), code)
"""


def run_tree(tree: Path, names: list[str], seeds: list[int], work: Path) -> list[list[str]]:
    """Write the inputs and run the commands of `names` x `seeds` with
    `tree`'s sources in a new directory `work`; return one (output path
    relative to `work`, exit code) pair per command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    work.mkdir()
    job = {"perfbench": str(PERFBENCH), "workloads": names, "seeds": seeds}
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(job), env=env,
                          capture_output=True, text=True, cwd=work)
    if done.returncode != 0:
        sys.exit(f"same_outputs: the run with {tree} failed:\n{done.stderr}")
    source, *lines = done.stdout.splitlines()
    if Path(source).resolve().parent != (tree / "src" / "voicepd").resolve():
        sys.exit(f"same_outputs: imported voicepd from {source}, not from {tree / 'src'}")
    return [line.rsplit(" ", 1) for line in lines]


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under `a` or `b` whose bytes differ or
    that exist on one side only."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(rel) for rel in names
                  if not ((a / rel).is_file() and (b / rel).is_file()
                          and (a / rel).read_bytes() == (b / rel).read_bytes()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path, help="checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(workloads.N_DATA_SEEDS)))
    parser.add_argument("--workloads", nargs="+", choices=list(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    other = args.other_tree.resolve()
    if not (other / "src" / "voicepd" / "__init__.py").is_file():
        parser.error(f"no voicepd sources under {other / 'src'}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        work = tmp / "work"
        # both trees run in `work`, so their manifests name the same paths
        here = run_tree(ROOT, args.workloads, args.seeds, work)
        work.rename(tmp / "this")
        there = run_tree(other, args.workloads, args.seeds, work)
        work.rename(tmp / "other")
        diffs = [f"{rel}: exit {a} here, {b} in {other}"
                 for (rel, a), (_, b) in zip(here, there) if a != b]
        diffs += differing_files(tmp / "this", tmp / "other")
        n_files = sum(1 for p in (tmp / "this").rglob("*") if p.is_file())
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(here)} commands, {n_files} input and output files: {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
