"""Seeded inputs and command lists of the benchmark workloads.

The program only ever sees the files written here: WAVs plus a manifest
for `extract`, a feature CSV for `evaluate`.  Every random draw comes from
a sub-seed of the workload seed, so one seed always gives byte-identical
files.  Seeds are taken modulo `N_DATA_SEEDS`, the number of seeds the
committed reference covers.
"""

from __future__ import annotations

import hashlib
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voicepd.features import FEATURE_NAMES
from voicepd.synth import SynthSpec, gen_blobs, gen_signal

N_DATA_SEEDS = 16
ALGORITHMS = ("knn", "tree", "nb", "svm", "nn")
CLASS_SIZES = (22, 28, 30)
SAMPLE_RATES = (16000, 44100)
DURATION_S = 2.0
F0_RANGE_HZ = (100.0, 140.0)
# (jitter %, shimmer dB) per class: 0 = Med Off, 1 = Healthy, 2 = Med On
CLASS_VOICE = {0: (2.5, 1.2), 1: (0.5, 0.3), 2: (1.2, 0.7)}

# extract: audio_io, pitch and features do the work; no classifier runs.
# evaluate-small: the paper's protocol at the paper's scale, many small fits.
# evaluate-large: 5x the rows, overlapping classes, chi-square in every fold.
WORKLOADS = {
    "extract": {"kind": "extract", "tag": 1},
    "evaluate-small": {"kind": "evaluate", "tag": 2, "rows": 80, "separation": 5.0,
                       "flags": []},
    "evaluate-large": {"kind": "evaluate", "tag": 3, "rows": 400, "separation": 2.0,
                       "flags": ["--top-k", "8", "--cv-k", "5"]},
}
# warm-up inputs: every code path of the workload, at a fraction of the cost
_WARM_TAG = 99
_WARM_ROWS = 60
_WARM_FLAGS = ["--svm-epochs", "2", "--nn-epochs", "2"]


@dataclass
class Command:
    argv: list[str]
    label: str         # "extract" or "evaluate_<algorithm>"
    output: Path


@dataclass
class Inputs:
    directory: Path
    files: list[Path] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)

    def sha256(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


def data_seed(seed: int) -> int:
    return seed % N_DATA_SEEDS


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write_wav(path: Path, samples: np.ndarray, sample_rate: int) -> None:
    ints = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(ints.tobytes())


def _write_table(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(list(FEATURE_NAMES) + ["label"]) + "\n")
        for row, label in zip(features, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def _corpus_specs(rng: np.random.Generator, class_sizes, rejects: bool):
    labels = rng.permutation([c for c, n in enumerate(class_sizes) for _ in range(n)])
    f0s = rng.uniform(*F0_RANGE_HZ, size=len(labels))
    seeds = rng.integers(0, 2**31, size=len(labels) + 2)
    specs = []
    for i, (label, f0) in enumerate(zip(labels, f0s)):
        jitter, shimmer = CLASS_VOICE[int(label)]
        specs.append((f"voiced_{i:02d}.wav", int(label), SynthSpec(
            kind="pulse_train", f0=float(f0), duration_s=DURATION_S,
            sample_rate=SAMPLE_RATES[i % 2], jitter_pct=jitter, shimmer_db=shimmer,
            seed=int(seeds[i]))))
    if rejects:
        specs.append(("noise.wav", 0, SynthSpec(
            kind="white_noise", duration_s=DURATION_S, sample_rate=SAMPLE_RATES[0],
            seed=int(seeds[-2]))))
        specs.append(("silence.wav", 1, SynthSpec(
            kind="silence", duration_s=DURATION_S, sample_rate=SAMPLE_RATES[1],
            seed=int(seeds[-1]))))
    return specs


def _extract_inputs(directory: Path, rng, class_sizes, rejects: bool) -> Inputs:
    inputs = Inputs(directory)
    lines = ["path,label"]
    for name, label, spec in _corpus_specs(rng, class_sizes, rejects):
        signal, _ = gen_signal(spec)
        path = directory / name
        _write_wav(path, signal.samples, spec.sample_rate)
        inputs.files.append(path)
        lines.append(f"{path},{label}")
    manifest = directory / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = directory / "features.csv"
    inputs.commands.append(Command(
        ["extract", "--manifest", str(manifest), "--out", str(out)], "extract", out))
    return inputs


def _evaluate_inputs(directory: Path, rng, rows: int, separation: float,
                     flags: list[str]) -> Inputs:
    inputs = Inputs(directory)
    total = sum(CLASS_SIZES)
    sizes = [rows * n // total for n in CLASS_SIZES]
    sizes[-1] += rows - sum(sizes)
    ds = gen_blobs(tuple(sizes), separation=separation, sigma=1.0,
                   seed=int(rng.integers(0, 2**31)))
    table = directory / "table.csv"
    _write_table(table, ds.features, ds.labels)
    inputs.files.append(table)
    for algorithm in ALGORITHMS:
        out = directory / f"report_{algorithm}.json"
        inputs.commands.append(Command(
            ["evaluate", "--features", str(table), "--algorithm", algorithm,
             "--out", str(out)] + flags, f"evaluate_{algorithm}", out))
    return inputs


def generate(workload: str, directory: Path, seed: int, warm: bool = False) -> Inputs:
    """Write the inputs of `workload` for `seed` into `directory`.

    `warm=True` writes a small variant that exercises the same code paths
    (both sample rates, every algorithm, the same flags) for warm-up.
    """
    spec = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    rng = _rng(data_seed(seed), _WARM_TAG if warm else spec["tag"])
    if spec["kind"] == "extract":
        sizes = (1, 1, 0) if warm else CLASS_SIZES
        return _extract_inputs(directory, rng, sizes, rejects=not warm)
    if warm:
        return _evaluate_inputs(directory, rng, _WARM_ROWS, spec["separation"],
                                spec["flags"] + _WARM_FLAGS)
    return _evaluate_inputs(directory, rng, spec["rows"], spec["separation"], spec["flags"])
