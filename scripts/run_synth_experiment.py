#!/usr/bin/env python3
"""End-to-end demonstration on synthetic voices.

Generates three classes of pulse-train recordings whose jitter levels mimic
increasing phonation instability, extracts the 19-feature table, ranks the
features by chi-square score, and evaluates one classifier with a holdout
split plus k-fold cross-validation.  Everything lands in --out-dir so the
intermediate CSVs can be inspected afterwards.

Usage:
    python3 scripts/run_synth_experiment.py --out-dir /tmp/synth_run
"""

import argparse
import json
import os
import sys

from voicepd.classifiers import ALGORITHMS
from voicepd.cli import main as cli

MIN_PER_CLASS = 6


def run(*args):
    code = cli([str(a) for a in args])
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--per-class", type=int, default=8)
    parser.add_argument("--algorithm", default="knn", choices=ALGORITHMS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.per_class < MIN_PER_CLASS:
        # the 25% holdout and 4-fold CV below need 4 training rows per class
        parser.error(f"--per-class must be at least {MIN_PER_CLASS}, got {args.per_class}")

    os.makedirs(args.out_dir, exist_ok=True)
    jitter_by_class = {0: 3.0, 1: 0.0, 2: 1.0}  # 0=Med Off, 1=Healthy, 2=Med On
    manifest_lines = []
    for label, jit in jitter_by_class.items():
        for i in range(args.per_class):
            name = f"class{label}_{i}"
            run("synth", "--kind", "pulse", "--out-dir", args.out_dir,
                "--f0", 100, "--duration", 1.0, "--sample-rate", 16000,
                "--jitter", jit, "--shimmer", 0.5 * label,
                "--seed", args.seed + 100 * label + i, "--name", name)
            manifest_lines.append(f"{os.path.join(args.out_dir, name)}.wav,{label}")

    manifest = os.path.join(args.out_dir, "manifest.csv")
    with open(manifest, "w") as fh:
        fh.write("\n".join(manifest_lines) + "\n")

    features = os.path.join(args.out_dir, "features.csv")
    ranked = os.path.join(args.out_dir, "ranked.csv")
    report = os.path.join(args.out_dir, "report.json")
    run("extract", "--manifest", manifest, "--out", features)
    run("rank", "--features", features, "--out", ranked)
    run("evaluate", "--features", features, "--algorithm", args.algorithm,
        "--cv-k", 4, "--test-fraction", 0.25, "--seed", args.seed,
        "--out", report)

    with open(ranked) as fh:
        top = [line.split(",")[1] for line in fh.read().splitlines()[1:6]]
    with open(report) as fh:
        doc = json.load(fh)
    print(f"\ntop 5 features by chi-square: {', '.join(top)}")
    print(f"holdout accuracy ({args.algorithm}): {doc['holdout']['accuracy']:.3f}")
    print(f"pooled CV accuracy ({args.algorithm}): {doc['cv']['pooled']['accuracy']:.3f}")


if __name__ == "__main__":
    main()
