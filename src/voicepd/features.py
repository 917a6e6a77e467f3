"""The 19 acoustic features, in canonical order.

Pitch-derived features (jitter, shimmer) consume a PitchTrack; all other
features operate on the whole normalized recording.  Spectral features use
a Welch (1967) power spectral density with a fixed geometry: Hann window,
1024-sample segments, 50% overlap.  The PSD is numpy code that agrees with
`scipy.signal.welch` to rounding, so importing this module needs no scipy.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioSignal, frame_signal
from .errors import UndefinedFeatureError
from .pitch import _BLOCK_FRAMES, PitchConfig, PitchTrack

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

# samples per chunk of the centred powers in `descriptive_stats`: a chunk's
# temporaries stay small whatever the recording's length
_MOMENT_CHUNK = 8192

# the threshold t of the SURE entropy
DEFAULT_SURE_THRESHOLD = 0.2


# --- pitch-derived ---------------------------------------------------------

def jitter(track: PitchTrack) -> float:
    """Relative jitter: mean |P_i - P_{i+1}| over mean period, as a percentage."""
    if len(track) < 2:
        raise UndefinedFeatureError(f"jitter needs >= 2 cycles, got {len(track)}")
    p = track.cycle_periods
    return 100.0 * float(np.mean(np.abs(np.diff(p)))) / float(np.mean(p))


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
    nonneg = x >= 0.0
    # an exact integer count, so the division equals the mean of 0.0/1.0 flags
    return np.count_nonzero(nonneg[1:] != nonneg[:-1]) / (len(x) - 1)


def mean_energy(signal: AudioSignal, pitch: PitchConfig = PitchConfig()) -> float:
    """Mean over analysis frames of per-frame average power (1/L) sum x^2,
    with the pitch tracker's frame length and hop.

    Raises UndefinedFeatureError when the signal is shorter than one frame.
    """
    power = signal.samples * signal.samples
    frames = frame_signal(power, signal.sample_rate, pitch.frame_ms, pitch.hop_ms)
    if len(frames) == 0:
        raise UndefinedFeatureError(f"recording of {len(power)} samples is shorter than one "
                                    f"{frames.shape[1]}-sample analysis frame")
    return float(np.mean(np.mean(frames, axis=1)))


def descriptive_stats(signal: AudioSignal) -> dict[str, float]:
    """Order statistics and moments of the raw sample distribution.

    Variance uses the (n-1) divisor; skewness and kurtosis use population
    central moments (normal kurtosis ~ 3); quartiles by linear interpolation.
    One signal-sized buffer serves all of them: it holds each power of the
    centred samples in turn, then a copy of the samples, partitioned once at
    every rank the median and the quartiles read.
    """
    x = signal.samples
    n = len(x)
    if n < 2:
        raise UndefinedFeatureError("descriptive stats need at least 2 samples")
    mean = float(np.mean(x))
    buf = np.empty_like(x)
    sums = []
    for power in (2, 3, 4):
        # c = x - mean a chunk at a time; each sum runs over the whole buffer,
        # so numpy's pairwise order, and every bit, is that of one expression
        for start in range(0, n, _MOMENT_CHUNK):
            c = x[start:start + _MOMENT_CHUNK] - mean
            part = np.multiply(c, c, out=buf[start:start + _MOMENT_CHUNK])
            if power == 3:
                part *= c
            elif power == 4:
                part *= part
        sums.append(np.add.reduce(buf))
    s2, s3, s4 = sums
    m2 = float(s2 / n)  # np.mean(c2); s2 / (n - 1) is np.var(x, ddof=1)
    variance = float(s2 / (n - 1))
    if m2 > 0.0:
        skewness = float(s3 / n) / m2 ** 1.5
        kurtosis = float(s4 / n) / m2 ** 2
    else:
        skewness = 0.0
        kurtosis = 0.0
    # numpy's formulas: the median is the mean of the middle rank or the two
    # middle ones; a linear quartile interpolates between ranks i and i + 1
    # around its virtual index n q + (1 - q) - 1
    lo, hi = (n - 1) // 2, n // 2
    virtual = [n * q + (1 - q) - 1 for q in (0.25, 0.75)]
    below = [math.floor(v) for v in virtual]
    np.copyto(buf, x)
    buf.partition(sorted({lo, hi, *below, *(i + 1 for i in below)}))
    q1, q3 = (_lerp(buf[i], buf[i + 1], v - i) for i, v in zip(below, virtual))
    return {
        "maximum": float(np.max(x)),
        "minimum": float(np.min(x)),
        "amplitude_mean": mean,
        "median": float(np.mean(buf[lo:hi + 1])),
        "variance": variance,
        "std_dev": math.sqrt(variance),
        "skewness": skewness,
        "kurtosis": kurtosis,
        "iqr": float(q3 - q1),
    }


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's linear interpolation between neighbouring order statistics,
    taken from b's side for t >= 0.5."""
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def log_entropy(signal: AudioSignal, eps: float = 1e-12) -> float:
    """Log-energy entropy: sum of log(x_i^2 + eps) over samples."""
    x = signal.samples
    buf = np.multiply(x, x)
    buf += eps
    return float(np.sum(np.log(buf, out=buf)))


def sure_entropy(signal: AudioSignal,
                 threshold: float = DEFAULT_SURE_THRESHOLD) -> float:
    """Threshold-SURE entropy: N - #{|x| <= t} + sum min(x^2, t^2)."""
    if threshold <= 0.0:
        raise ValueError("sure_entropy threshold must be positive")
    x = signal.samples
    n = len(x)
    below = int(np.count_nonzero((x <= threshold) & (x >= -threshold)))
    buf = np.multiply(x, x)
    return float(n - below + np.sum(np.minimum(buf, threshold * threshold, out=buf)))


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

    Full segments only (no boundary extension or padding).  The segments
    are windowed and transformed in blocks of `_BLOCK_FRAMES` rows, so the
    only signal-sized array is the (bins, segments) power table.  The
    arithmetic follows `scipy.signal.welch` step by step, so the two agree
    to the last bit or within a few ulps: the window carries the density
    scale 1 / sqrt(fs * sum w^2) with the sum taken in order, and the mean
    over segments runs along the table's contiguous axis (numpy's pairwise
    summation).
    """
    x = signal.samples
    fs = signal.sample_rate
    nperseg = min(_NPERSEG, len(x))
    step = nperseg - int(nperseg * _OVERLAP)
    win = _hann(nperseg)
    win = win * (1.0 / np.sqrt(np.cumsum(win * win)[-1] / (1.0 / fs)))
    segments = sliding_window_view(x, nperseg)[::step]
    power = np.empty((nperseg // 2 + 1, len(segments)))
    for start in range(0, len(segments), _BLOCK_FRAMES):
        spec = np.fft.rfft(segments[start:start + _BLOCK_FRAMES] * win, axis=1)
        block = power[:, start:start + _BLOCK_FRAMES].T
        np.square(spec.real, out=block)
        block += np.square(spec.imag)
    psd = power.mean(axis=1)
    psd[1:(nperseg + 1) // 2] *= 2.0  # fold in the negative frequencies; not DC or Nyquist
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def spectral_stats(signal: AudioSignal) -> dict[str, float]:
    """The three spectral features below, keyed as in `FEATURE_NAMES`, from one Welch PSD."""
    if len(signal.samples) < 2:  # a one-bin PSD, whose entropy would divide by log2(1)
        raise UndefinedFeatureError("mean_frequency, shannon_entropy and power_bandwidth_hz "
                                    "need at least 2 samples")
    freqs, psd = power_spectrum(signal)
    total = float(np.sum(psd))
    if total <= 0.0:
        raise UndefinedFeatureError("mean_frequency, shannon_entropy and power_bandwidth_hz "
                                    "undefined for zero-power signal")
    p = psd / total
    nz = p[p > 0.0]
    k = int(np.argmax(psd))
    level = psd[k] / 2.0
    left, right = freqs[0], freqs[-1]
    below = np.flatnonzero(psd[:k] < level)
    if len(below):
        i = below[-1] + 1
        frac = (psd[i] - level) / (psd[i] - psd[i - 1])
        left = freqs[i] - frac * (freqs[i] - freqs[i - 1])
    below = np.flatnonzero(psd[k + 1:] < level)
    if len(below):
        i = k + below[0]
        frac = (psd[i] - level) / (psd[i] - psd[i + 1])
        right = freqs[i] + frac * (freqs[i + 1] - freqs[i])
    return {
        "mean_frequency": float(np.sum(freqs * psd) / total),
        "shannon_entropy": float(-np.sum(nz * np.log2(nz))) / math.log2(len(psd)),
        "power_bandwidth_hz": float(right - left),
    }


def mean_frequency(signal: AudioSignal) -> float:
    """Power-weighted spectral centroid in Hz."""
    return spectral_stats(signal)["mean_frequency"]


def shannon_entropy(signal: AudioSignal) -> float:
    """Shannon entropy of the normalized PSD, scaled by log2(K) into [0, 1]."""
    return spectral_stats(signal)["shannon_entropy"]


def power_bandwidth(signal: AudioSignal) -> float:
    """3 dB bandwidth: width of the contiguous band around the spectral peak
    where the PSD stays >= peak/2, edges by linear interpolation."""
    return spectral_stats(signal)["power_bandwidth_hz"]


# --- the full row ----------------------------------------------------------

def extract_all(signal: AudioSignal, track: PitchTrack, pitch: PitchConfig = PitchConfig(),
                sure_threshold: float = DEFAULT_SURE_THRESHOLD) -> np.ndarray:
    """All 19 features as a float64 array in `FEATURE_NAMES` order.

    Raises UndefinedFeatureError rather than imputing when the recording is
    shorter than one pitch analysis frame, when jitter/shimmer or the
    spectrum are undefined, or when a value is not finite.
    """
    energy = mean_energy(signal, pitch)  # first: it rejects a recording shorter than one frame
    values = descriptive_stats(signal)
    values.update(spectral_stats(signal))
    values.update(
        shimmer_db=shimmer(track),
        log_entropy=log_entropy(signal),
        jitter_pct=jitter(track),
        mean_energy=energy,
        rms=rms(signal),
        zcr=zcr(signal),
        sure_entropy=sure_entropy(signal, sure_threshold),
    )
    row = np.array([values[name] for name in FEATURE_NAMES], dtype=np.float64)
    if not np.all(np.isfinite(row)):
        bad = [n for n, v in zip(FEATURE_NAMES, row) if not np.isfinite(v)]
        raise UndefinedFeatureError(f"non-finite features {bad} for {signal.source_path!r}")
    return row
