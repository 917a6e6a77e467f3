#!/usr/bin/env python3
"""Check that this tree and another checkout write byte-identical outputs.

Generates the inputs of the benchmark workloads once, with
`perfbench/workloads.py`, for the chosen data seeds: the WAV corpus of
`extract` and the feature tables of `evaluate-small` and `evaluate-large`.
Then runs every command of those workloads with this tree's `src/` and
with OTHER_TREE's `src/`, each tree in a child process of its own, and
compares the files they wrote: the feature CSV and its rejects sidecar per
`extract` run, and one report JSON per `evaluate` run (160 reports over
the default 16 seeds).  Prints each file that differs or exists on one
side only, and exits 1 if there is any, 0 if there is none.

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

sys.path.insert(0, str(ROOT / "perfbench"))  # the workload generator
import bootstrap  # noqa: E402

bootstrap.pin_environment()  # one BLAS thread here and in both children

import workloads  # noqa: E402

# runs a JSON list of argv lists through the CLI of the voicepd on its path;
# prints where voicepd came from, then one exit code per command
_CHILD = """
import contextlib, io, json, sys
import voicepd
from voicepd import cli
print(voicepd.__file__)
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(code)
"""


def _with_output(argv: list[str], out: Path) -> list[str]:
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(out)
    return argv


def run_tree(tree: Path, commands: list[tuple[str, list[str]]], out_dir: Path) -> list[str]:
    """Run each (relative output path, argv) with `tree`'s sources, writing
    under `out_dir`; return one line per command: its exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for rel, argv in commands:
        (out_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        argvs.append(_with_output(argv, out_dir / rel))
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs), env=env,
                          capture_output=True, text=True, cwd=out_dir)
    if done.returncode != 0:
        sys.exit(f"same_outputs: the run with {tree} failed:\n{done.stderr}")
    source, *codes = done.stdout.splitlines()
    if Path(source).resolve().parent != (tree / "src" / "voicepd").resolve():
        sys.exit(f"same_outputs: imported voicepd from {source}, not from {tree / 'src'}")
    return codes


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
        commands = []
        for name in args.workloads:
            for seed in args.seeds:
                inputs = workloads.generate(name, tmp / "inputs" / name / str(seed), seed)
                commands += [(f"{name}/seed{seed}/{c.output.name}", c.argv)
                             for c in inputs.commands]
        here = run_tree(ROOT, commands, tmp / "this")
        there = run_tree(other, commands, tmp / "other")
        diffs = [f"{rel}: exit {a} here, {b} in {other}"
                 for (rel, _), a, b in zip(commands, here, there) if a != b]
        diffs += differing_files(tmp / "this", tmp / "other")
        n_files = sum(1 for p in (tmp / "this").rglob("*") if p.is_file())
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(commands)} commands, {n_files} output files: {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
