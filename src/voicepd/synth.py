"""Synthetic signals and datasets with known ground truth.

The pulse train models each glottal cycle as a decaying exponential whose
onset amplitude is the cycle peak; pulses are truncated at the next onset
so rendered peaks equal the programmed amplitudes exactly.  Period
perturbations are uniform, which makes the expected measured jitter equal
to the programmed value in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioSignal, peak_normalize
from .data import LabeledDataset
from .errors import ConfigError
from .features import FEATURE_NAMES

KINDS = ("pulse_train", "sine", "white_noise", "silence")


@dataclass(frozen=True)
class SynthSpec:
    kind: str = "pulse_train"
    f0: float = 100.0
    duration_s: float = 2.0
    sample_rate: int = 48000
    jitter_pct: float = 0.0
    shimmer_db: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        for name in ("f0", "duration_s", "jitter_pct", "shimmer_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        samples = self.duration_s * self.sample_rate
        if not math.isfinite(samples) or round(samples) < 1:
            raise ConfigError(f"duration_s {self.duration_s} at {self.sample_rate} Hz gives "
                              f"{samples:g} samples; need a finite count of at least 1")
        if self.kind in ("pulse_train", "sine"):
            if self.f0 <= 0:
                raise ConfigError(f"f0 must be positive, got {self.f0}")
            if self.f0 >= self.sample_rate / 2:
                raise ConfigError(f"f0 {self.f0} must be below Nyquist {self.sample_rate / 2}")
        if self.jitter_pct < 0 or self.shimmer_db < 0:
            raise ConfigError("jitter_pct and shimmer_db must be non-negative")
        # the shortest jittered period must span a sample, so onsets strictly increase
        if (self.kind == "pulse_train"
                and self.sample_rate / self.f0 * (1.0 - 3.0 * self.jitter_pct / 200.0) < 1.0):
            raise ConfigError(f"jitter_pct {self.jitter_pct} can make a period shorter "
                              "than one sample")


@dataclass
class GroundTruth:
    spec: SynthSpec
    onset_samples: list[int] = field(default_factory=list)
    cycle_periods_s: list[float] = field(default_factory=list)
    cycle_peaks: list[float] = field(default_factory=list)


def _gen_pulse_train(spec: SynthSpec) -> tuple[np.ndarray, GroundTruth]:
    fs = spec.sample_rate
    n = int(round(spec.duration_s * fs))
    base_period = fs / spec.f0
    # uniform perturbation half-width so E|delta_i - delta_{i+1}| realizes
    # the programmed mean-absolute-successive-difference jitter
    half_width = 3.0 * spec.jitter_pct / 200.0
    amp_ratio = 10.0 ** (-spec.shimmer_db / 20.0)
    rng = np.random.default_rng(spec.seed)

    # enough periods that the last onset passes n even if every period is the shortest
    count = int(n / (base_period * (1.0 - half_width))) + 2
    periods = base_period * (1.0 + rng.uniform(-half_width, half_width, count))
    t = np.round(np.concatenate(([0.0], np.cumsum(periods))))
    onsets = t[t < n].astype(np.int64).tolist()
    amps = [1.0 if i % 2 == 0 else amp_ratio for i in range(len(onsets))]

    x = np.zeros(n)
    tau = base_period / 4.0
    bounds = onsets + [n]
    for a, (start, end) in zip(amps, zip(bounds[:-1], bounds[1:])):
        length = end - start
        x[start:end] = a * np.exp(-np.arange(length) / tau)

    periods = [(b - a) / fs for a, b in zip(onsets[:-1], onsets[1:])]
    peaks = amps[:-1]  # peak of cycle i is the onset amplitude of pulse i
    truth = GroundTruth(spec=spec, onset_samples=onsets,
                        cycle_periods_s=periods, cycle_peaks=peaks)
    return peak_normalize(x), truth


def gen_signal(spec: SynthSpec) -> tuple[AudioSignal, GroundTruth]:
    """Render a spec to a normalized signal plus its ground-truth record."""
    spec.validate()
    fs = spec.sample_rate
    n = int(round(spec.duration_s * fs))
    if spec.kind == "pulse_train":
        x, truth = _gen_pulse_train(spec)
    elif spec.kind == "sine":
        t = np.arange(n) / fs
        x = np.sin(2.0 * np.pi * spec.f0 * t)
        x = peak_normalize(x)
        truth = GroundTruth(spec)
    elif spec.kind == "white_noise":
        rng = np.random.default_rng(spec.seed)
        x = peak_normalize(rng.standard_normal(n))
        truth = GroundTruth(spec)
    else:  # silence
        x = np.zeros(n)
        truth = GroundTruth(spec)
    signal = AudioSignal(samples=x, sample_rate=fs, source_path=f"<synth:{spec.kind}>")
    return signal, truth


def gen_blobs(n_per_class: tuple[int, int, int] | int, dims: int = 19,
              separation: float = 5.0, sigma: float = 0.1,
              seed: int = 0) -> LabeledDataset:
    """Three Gaussian clusters at mutually equidistant centers."""
    if isinstance(n_per_class, int):
        n_per_class = (n_per_class, n_per_class, n_per_class)
    if any(n < 1 for n in n_per_class):
        raise ConfigError("n_per_class values must be >= 1")
    if separation <= 0 or sigma <= 0:
        raise ConfigError("separation and sigma must be positive")
    rng = np.random.default_rng(seed)
    # orthonormal directions spread over all dims, scaled so pairwise
    # center distance = separation (survives per-feature standardization)
    q, _ = np.linalg.qr(rng.standard_normal((dims, 3)))
    centers = q.T * (separation / np.sqrt(2.0))
    rows, labels = [], []
    for c, n_c in enumerate(n_per_class):
        rows.append(centers[c] + sigma * rng.standard_normal((n_c, dims)))
        labels.extend([c] * n_c)
    names = list(FEATURE_NAMES) if dims == len(FEATURE_NAMES) else [f"f{j}" for j in range(dims)]
    return LabeledDataset(features=np.vstack(rows), labels=np.array(labels, dtype=np.int64),
                          feature_names=names)
