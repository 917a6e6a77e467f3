"""Autocorrelation pitch tracking and glottal-cycle segmentation.

Per frame, the fundamental period is the lag maximizing the normalized
autocorrelation inside [1/f0_max, 1/f0_min]; frames whose peak falls below
the voicing threshold are unvoiced.  Within voiced runs, cycle anchors are
placed at successive waveform maxima roughly one period apart, giving the
per-cycle periods P_i and peak amplitudes V_i that jitter and shimmer use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioSignal, frame_geometry, frame_signal
from .errors import ConfigError


@dataclass(frozen=True)
class PitchConfig:
    frame_ms: float = 40.0
    hop_ms: float = 10.0
    f0_min: float = 60.0
    f0_max: float = 500.0
    voicing_threshold: float = 0.30


@dataclass(frozen=True)
class PitchEstimate:
    period_s: float | None  # None when unvoiced
    voicing_score: float

    @property
    def voiced(self) -> bool:
        return self.period_s is not None


@dataclass
class PitchTrack:
    """Per-cycle periods and peak amplitudes over the voiced parts of a signal."""

    cycle_periods: np.ndarray  # seconds
    cycle_peaks: np.ndarray    # normalized amplitude

    def __post_init__(self):
        self.cycle_periods = np.asarray(self.cycle_periods, dtype=np.float64)
        self.cycle_peaks = np.asarray(self.cycle_peaks, dtype=np.float64)
        if len(self.cycle_periods) != len(self.cycle_peaks):
            raise ValueError("cycle_periods and cycle_peaks must have equal length")

    def __len__(self) -> int:
        return len(self.cycle_periods)


# frames per rFFT batch: enough to amortize the per-call cost, few enough
# that the (block, nfft) spectra stay near 1 MB at 48 kHz
_BLOCK_FRAMES = 32


def _normalized_acf(frames: np.ndarray, nfft: int, n_lags: int) -> np.ndarray:
    """Raw autocorrelation sums r(0..n_lags-1) of each row, normalized by r(0);
    all zero for a row with r(0) <= 0."""
    spec = np.fft.rfft(frames, nfft)
    power = spec * np.conj(spec)
    del spec  # the block's transforms are the largest arrays of the extract path
    acf = np.fft.irfft(power, nfft)[:, :n_lags]
    r0 = acf[:, :1]
    return np.divide(acf, r0, out=np.zeros_like(acf), where=r0 > 0.0)


def _next_fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length numpy's FFT handles quickly."""
    best = 1 << (n - 1).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _estimate_frames(frames: np.ndarray, sample_rate: int,
                     config: PitchConfig) -> list[PitchEstimate]:
    """Period estimate of every row of `frames` via its normalized ACF peak.

    The autocorrelation sums r(0..lag_max+1) of each frame come from a
    zero-padded rFFT over blocks of rows.  Its length nfft is the smallest
    2^a * 3^b * 5^c >= frame_len + lag_max + 1.  At lag k the circular
    correlation adds r(nfft - k), which is zero for every lag read
    (k <= lag_max + 1) because nfft - k >= frame_len.
    """
    if config.f0_min >= config.f0_max:
        raise ConfigError(f"f0_min {config.f0_min} must be < f0_max {config.f0_max}")
    n_frames, frame_len = frames.shape
    lag_min = max(int(np.ceil(sample_rate / config.f0_max)), 1)
    lag_max = int(np.floor(sample_rate / config.f0_min))
    if lag_max >= frame_len:
        raise ConfigError(f"lag range up to {lag_max} exceeds frame length {frame_len}")
    if lag_min > lag_max:  # no whole lag inside the f0 range
        return [PitchEstimate(None, 0.0)] * n_frames
    nfft = _next_fast_len(frame_len + lag_max + 1)

    estimates: list[PitchEstimate] = []
    for start in range(0, n_frames, _BLOCK_FRAMES):
        acf = _normalized_acf(frames[start:start + _BLOCK_FRAMES], nfft, lag_max + 2)
        if lag_max + 1 == frame_len:  # lag frame_len lies outside the frame: -inf there
            acf[:, -1] = -np.inf
        # restrict to local maxima so the decaying near-zero-lag edge never wins
        vals = acf[:, lag_min:lag_max + 1]
        is_peak = (vals >= acf[:, lag_min - 1:lag_max]) & (vals >= acf[:, lag_min + 1:])
        has_peak = is_peak.any(axis=1)
        best = np.argmax(np.where(is_peak, vals, -np.inf), axis=1)
        score = np.where(has_peak, vals[np.arange(len(vals)), best], vals.max(axis=1))
        voiced = has_peak & (score >= config.voicing_threshold)
        estimates += [
            PitchEstimate(period_s=(lag_min + b) / sample_rate if v else None,
                          voicing_score=s if v else max(s, 0.0))
            for b, s, v in zip(best.tolist(), score.tolist(), voiced.tolist())
        ]
    return estimates


def track_pitch(signal: AudioSignal, config: PitchConfig) -> list[PitchEstimate]:
    """Frame the signal and estimate the pitch of every frame."""
    frames = frame_signal(signal.samples, signal.sample_rate, config.frame_ms, config.hop_ms)
    if len(frames) == 0:
        return []
    return _estimate_frames(frames, signal.sample_rate, config)


def _voiced_runs(periods: list[float | None]) -> list[tuple[int, int]]:
    """(start, stop) frame ranges of the maximal runs of voiced frames."""
    voiced = np.array([p is not None for p in periods], dtype=np.int8)
    edges = np.flatnonzero(np.diff(voiced, prepend=0, append=0)).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _median_smooth_runs(periods: list[float | None]) -> list[float | None]:
    """Width-3 median filter applied within each voiced run (edges replicated)."""
    out: list[float | None] = list(periods)
    for i, j in _voiced_runs(periods):
        if j - i >= 3:
            b = np.array(periods[i:j])
            a = np.concatenate((b[:1], b[:-1]))
            c = np.concatenate((b[1:], b[-1:]))
            # the middle one of (a, b, c): the value np.median would pick
            out[i:j] = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c)).tolist()
    return out


def segment_cycles(signal: AudioSignal, estimates: list[PitchEstimate],
                   config: PitchConfig) -> PitchTrack:
    """Place cycle anchors at waveform maxima within each voiced run.

    Anchors are spaced within +-25% of the local (median-smoothed) period.
    P_i is the spacing between consecutive anchors; V_i is max |sample|
    inside cycle i.  Fully unvoiced input yields an empty track.
    """
    x = signal.samples
    fs = signal.sample_rate
    frame_len, hop = frame_geometry(fs, config.frame_ms, config.hop_ms)
    n = len(x)

    periods = _median_smooth_runs([e.period_s for e in estimates])

    all_periods: list[np.ndarray] = []
    all_peaks: list[np.ndarray] = []
    for i, j in _voiced_runs(periods):
        # voiced run covers frames i..j-1
        start = i * hop
        end = min((j - 1) * hop + frame_len, n)
        w_end = min(start + int(periods[i] * fs) + 1, end)
        if w_end <= start:
            continue
        anchor = start + int(np.argmax(x[start:w_end]))
        anchors = [anchor]
        while True:
            fi = min(max(anchor // hop, i), j - 1)
            p = periods[fi] * fs
            lo = anchor + int(0.75 * p)
            hi = anchor + int(1.25 * p) + 1
            if hi > end:  # truncated search window: stop rather than grab a tail sample
                break
            anchor = lo + int(np.argmax(x[lo:hi]))
            anchors.append(anchor)
        first = anchors[0]
        bounds = np.array(anchors)
        peaks = np.maximum.reduceat(np.abs(x[first:anchor]), bounds[:-1] - first)
        keep = peaks > 0.0
        all_periods.append(np.diff(bounds)[keep] / fs)
        all_peaks.append(peaks[keep])

    return PitchTrack(
        cycle_periods=np.concatenate(all_periods) if all_periods else np.array([]),
        cycle_peaks=np.concatenate(all_peaks) if all_peaks else np.array([]),
    )


def analyze_pitch(signal: AudioSignal, config: PitchConfig | None = None) -> PitchTrack:
    """Convenience wrapper: frame, estimate, smooth, segment."""
    config = config or PitchConfig()
    return segment_cycles(signal, track_pitch(signal, config), config)
