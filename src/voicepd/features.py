"""The 19 acoustic features, in canonical order.

Pitch-derived features (jitter, shimmer) consume a PitchTrack; all other
features operate on the whole normalized recording.  Spectral features use
a Welch (1967) power spectral density with a fixed geometry: Hann window,
1024-sample segments, 50% overlap.  The PSD is numpy code that agrees with
`scipy.signal.welch` to rounding, so importing this module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioSignal, frame_signal
from .errors import UndefinedFeatureError
from .pitch import PitchConfig, PitchTrack

FEATURE_NAMES = (
    "maximum",
    "mean_frequency",
    "minimum",
    "shimmer_db",
    "log_entropy",
    "power_bandwidth_hz",
    "jitter_pct",
    "mean_energy",
    "rms",
    "std_dev",
    "variance",
    "amplitude_mean",
    "median",
    "skewness",
    "kurtosis",
    "shannon_entropy",
    "zcr",
    "sure_entropy",
    "iqr",
)


# Welch PSD geometry: Hann-windowed segments of this many samples, 50% overlap
_NPERSEG = 1024
_OVERLAP = 0.5


@dataclass(frozen=True)
class FeatureConfig:
    pitch: PitchConfig = field(default_factory=PitchConfig)
    sure_threshold: float = 0.2


# --- pitch-derived ---------------------------------------------------------

def jitter_seconds(track: PitchTrack) -> float:
    """Mean absolute difference of consecutive cycle periods, in seconds."""
    if len(track) < 2:
        raise UndefinedFeatureError(f"jitter needs >= 2 cycles, got {len(track)}")
    p = track.cycle_periods
    return float(np.mean(np.abs(np.diff(p))))


def jitter(track: PitchTrack) -> float:
    """Relative jitter: mean |P_i - P_{i+1}| over mean period, as a percentage."""
    return 100.0 * jitter_seconds(track) / float(np.mean(track.cycle_periods))


def shimmer(track: PitchTrack) -> float:
    """Mean |20 log10(V_{i+1}/V_i)| over consecutive cycle peaks, in dB."""
    if len(track) < 2:
        raise UndefinedFeatureError(f"shimmer needs >= 2 cycles, got {len(track)}")
    v = track.cycle_peaks
    if np.any(v <= 0.0):
        raise UndefinedFeatureError("shimmer undefined for non-positive cycle peaks")
    return float(np.mean(np.abs(20.0 * np.log10(v[1:] / v[:-1]))))


# --- time-domain -----------------------------------------------------------

def rms(signal: AudioSignal) -> float:
    x = signal.samples
    return float(np.sqrt(np.mean(x * x)))


def zcr(signal: AudioSignal) -> float:
    """Fraction of adjacent sample pairs with differing sign, sgn(0) = +1."""
    x = signal.samples
    if len(x) < 2:
        raise UndefinedFeatureError("zcr needs at least 2 samples")
    sgn = np.where(x >= 0.0, 1.0, -1.0)
    return float(np.mean(np.abs(sgn[1:] - sgn[:-1]) / 2.0))


def mean_energy(signal: AudioSignal, config: FeatureConfig | None = None) -> float:
    """Mean over analysis frames of per-frame average power (1/L) sum x^2.

    Falls back to a single whole-signal frame when the signal is shorter
    than one frame.
    """
    config = config or FeatureConfig()
    power = signal.samples * signal.samples
    frames = frame_signal(power, signal.sample_rate, config.pitch.frame_ms, config.pitch.hop_ms)
    if len(frames) == 0:
        return float(np.mean(power))
    return float(np.mean(np.mean(frames, axis=1)))


def descriptive_stats(signal: AudioSignal) -> dict[str, float]:
    """Order statistics and moments of the raw sample distribution.

    Variance uses the (n-1) divisor; skewness and kurtosis use population
    central moments (normal kurtosis ~ 3); quartiles by linear interpolation.
    """
    x = signal.samples
    if len(x) < 2:
        raise UndefinedFeatureError("descriptive stats need at least 2 samples")
    mean = float(np.mean(x))
    centered = x - mean
    c2 = centered * centered
    m2 = float(np.mean(c2))
    m3 = float(np.mean(c2 * centered))
    m4 = float(np.mean(c2 * c2))
    if m2 > 0.0:
        skewness = m3 / m2 ** 1.5
        kurtosis = m4 / m2 ** 2
    else:
        skewness = 0.0
        kurtosis = 0.0
    variance = float(np.var(x, ddof=1))
    q1, q3 = np.quantile(x, [0.25, 0.75])
    return {
        "maximum": float(np.max(x)),
        "minimum": float(np.min(x)),
        "amplitude_mean": mean,
        "median": float(np.median(x)),
        "variance": variance,
        "std_dev": math.sqrt(variance),
        "skewness": skewness,
        "kurtosis": kurtosis,
        "iqr": float(q3 - q1),
    }


def log_entropy(signal: AudioSignal, eps: float = 1e-12) -> float:
    """Log-energy entropy: sum of log(x_i^2 + eps) over samples."""
    x = signal.samples
    return float(np.sum(np.log(x * x + eps)))


def sure_entropy(signal: AudioSignal,
                 threshold: float = FeatureConfig.sure_threshold) -> float:
    """Threshold-SURE entropy: N - #{|x| <= t} + sum min(x^2, t^2)."""
    if threshold <= 0.0:
        raise ValueError("sure_entropy threshold must be positive")
    x = signal.samples
    n = len(x)
    below = int(np.count_nonzero(np.abs(x) <= threshold))
    return float(n - below + np.sum(np.minimum(x * x, threshold * threshold)))


# --- spectral --------------------------------------------------------------

def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of length n, bit-equal to `scipy.signal.get_window("hann", n)`."""
    if n == 1:
        return np.ones(1)
    # scipy's cosine sum 0.5 cos(0 fac) + 0.5 cos(fac) over n + 1 points, last one dropped
    fac = np.linspace(-np.pi, np.pi, n + 1)
    return (0.5 + 0.5 * np.cos(fac))[:-1]


def power_spectrum(signal: AudioSignal) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch PSD (frequencies in Hz, density scaling, no detrend).

    Full segments only (no boundary extension or padding), all windowed and
    transformed in one 2-D rFFT call.  The arithmetic follows
    `scipy.signal.welch` step by step, so the two agree to the last bit or
    within a few ulps: the window carries the density scale
    1 / sqrt(fs * sum w^2) with the sum taken in order, and the mean over
    segments runs along a contiguous axis (numpy's pairwise summation).
    """
    x = signal.samples
    fs = signal.sample_rate
    nperseg = min(_NPERSEG, len(x))
    step = nperseg - int(nperseg * _OVERLAP)
    win = _hann(nperseg)
    win = win * (1.0 / np.sqrt(np.cumsum(win * win)[-1] / (1.0 / fs)))
    spec = np.fft.rfft(sliding_window_view(x, nperseg)[::step] * win, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    psd = np.ascontiguousarray(power.T).mean(axis=1)
    psd[1:(nperseg + 1) // 2] *= 2.0  # fold in the negative frequencies; not DC or Nyquist
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def mean_frequency(signal: AudioSignal) -> float:
    """Power-weighted spectral centroid in Hz."""
    return _mean_frequency(*power_spectrum(signal))


def shannon_entropy(signal: AudioSignal) -> float:
    """Shannon entropy of the normalized PSD, scaled by log2(K) into [0, 1]."""
    return _shannon_entropy(*power_spectrum(signal))


def power_bandwidth(signal: AudioSignal) -> float:
    """3 dB bandwidth: width of the contiguous band around the spectral peak
    where the PSD stays >= peak/2, edges by linear interpolation."""
    return _power_bandwidth(*power_spectrum(signal))


def _mean_frequency(freqs: np.ndarray, psd: np.ndarray) -> float:
    total = float(np.sum(psd))
    if total <= 0.0:
        raise UndefinedFeatureError("mean_frequency undefined for zero-power signal")
    return float(np.sum(freqs * psd) / total)


def _shannon_entropy(freqs: np.ndarray, psd: np.ndarray) -> float:
    total = float(np.sum(psd))
    if total <= 0.0:
        raise UndefinedFeatureError("shannon_entropy undefined for zero-power signal")
    p = psd / total
    nz = p[p > 0.0]
    h = float(-np.sum(nz * np.log2(nz)))
    return h / math.log2(len(psd))


def _power_bandwidth(freqs: np.ndarray, psd: np.ndarray) -> float:
    total = float(np.sum(psd))
    if total <= 0.0:
        raise UndefinedFeatureError("power_bandwidth undefined for zero-power signal")
    k = int(np.argmax(psd))
    level = psd[k] / 2.0

    left = freqs[0]
    for i in range(k, 0, -1):
        if psd[i - 1] < level:
            frac = (psd[i] - level) / (psd[i] - psd[i - 1])
            left = freqs[i] - frac * (freqs[i] - freqs[i - 1])
            break

    right = freqs[-1]
    for i in range(k, len(psd) - 1):
        if psd[i + 1] < level:
            frac = (psd[i] - level) / (psd[i] - psd[i + 1])
            right = freqs[i] + frac * (freqs[i + 1] - freqs[i])
            break

    return float(right - left)


# --- the full row ----------------------------------------------------------

def extract_all(signal: AudioSignal, track: PitchTrack,
                config: FeatureConfig | None = None) -> np.ndarray:
    """All 19 features as a float64 array in `FEATURE_NAMES` order.

    Raises UndefinedFeatureError rather than imputing when jitter/shimmer or
    the spectrum are undefined, or when a value is not finite.
    """
    config = config or FeatureConfig()
    values = descriptive_stats(signal)
    spectrum = power_spectrum(signal)
    values.update(
        mean_frequency=_mean_frequency(*spectrum),
        shimmer_db=shimmer(track),
        log_entropy=log_entropy(signal),
        power_bandwidth_hz=_power_bandwidth(*spectrum),
        jitter_pct=jitter(track),
        mean_energy=mean_energy(signal, config),
        rms=rms(signal),
        shannon_entropy=_shannon_entropy(*spectrum),
        zcr=zcr(signal),
        sure_entropy=sure_entropy(signal, config.sure_threshold),
    )
    row = np.array([values[name] for name in FEATURE_NAMES], dtype=np.float64)
    if not np.all(np.isfinite(row)):
        bad = [n for n, v in zip(FEATURE_NAMES, row) if not np.isfinite(v)]
        raise UndefinedFeatureError(f"non-finite features {bad} for {signal.source_path!r}")
    return row
