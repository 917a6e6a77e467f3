"""Every feature is checked against a direct, loop-based re-implementation
of its defining formula on random signals.  The oracles here deliberately
avoid the library's code paths (and numpy where practical)."""

import math

import numpy as np
import pytest

from voicepd import features as F
from voicepd.audio_io import AudioSignal, peak_normalize
from voicepd.pitch import PitchTrack

N_SIGNALS = 100
N_SAMPLES = 1000
FS = 8000
REL = 1e-9
REL_SPECTRAL = 1e-6


def random_signals():
    rng = np.random.default_rng(20250301)
    for _ in range(N_SIGNALS):
        x = peak_normalize(rng.standard_normal(N_SAMPLES))
        yield AudioSignal(samples=x, sample_rate=FS)


def random_tracks():
    rng = np.random.default_rng(77)
    for _ in range(N_SIGNALS):
        n = int(rng.integers(2, 40))
        periods = rng.uniform(0.002, 0.016, n)
        peaks = rng.uniform(0.05, 1.0, n)
        yield PitchTrack(cycle_periods=periods, cycle_peaks=peaks)


# --- oracles ---------------------------------------------------------------

def oracle_jitter(periods):
    n = len(periods)
    acc = sum(abs(periods[i] - periods[i + 1]) for i in range(n - 1))
    return 100.0 * (acc / (n - 1)) / (sum(periods) / n)


def oracle_shimmer(peaks):
    n = len(peaks)
    return sum(abs(20.0 * math.log10(peaks[i + 1] / peaks[i])) for i in range(n - 1)) / (n - 1)


def oracle_rms(x):
    return math.sqrt(sum(v * v for v in x) / len(x))


def oracle_zcr(x):
    def sgn(v):
        return 1 if v >= 0 else -1
    return sum(abs(sgn(x[i]) - sgn(x[i - 1])) / 2 for i in range(1, len(x))) / (len(x) - 1)


def oracle_mean_energy(x, fs, frame_ms=40.0, hop_ms=10.0):
    length = round(frame_ms * fs / 1000)
    hop = round(hop_ms * fs / 1000)
    frames = []
    start = 0
    while start + length <= len(x):
        frames.append(x[start:start + length])
        start += hop
    if not frames:
        frames = [x]
    return sum(sum(v * v for v in f) / len(f) for f in frames) / len(frames)


def oracle_stats(x):
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    variance = sum((v - mean) ** 2 for v in x) / (n - 1)

    def quantile(sorted_x, q):
        pos = (n - 1) * q
        lo = math.floor(pos)
        hi = math.ceil(pos)
        return sorted_x[lo] + (pos - lo) * (sorted_x[hi] - sorted_x[lo])

    s = sorted(x)
    median = quantile(s, 0.5)
    return {
        "maximum": max(x),
        "minimum": min(x),
        "amplitude_mean": mean,
        "median": median,
        "variance": variance,
        "std_dev": math.sqrt(variance),
        "skewness": m3 / m2 ** 1.5,
        "kurtosis": m4 / m2 ** 2,
        "iqr": quantile(s, 0.75) - quantile(s, 0.25),
    }


def oracle_log_entropy(x, eps=1e-12):
    return sum(math.log(v * v + eps) for v in x)


def oracle_sure_entropy(x, t=0.2):
    n = len(x)
    below = sum(1 for v in x if abs(v) <= t)
    return n - below + sum(min(v * v, t * t) for v in x)


def oracle_welch_psd(x, fs, nperseg=1024, overlap=0.5):
    """Hand-rolled Welch: periodic Hann window, 50% overlap, density scaling,
    one-sided with interior-bin doubling.  Plain-python DFT bookkeeping."""
    nperseg = min(nperseg, len(x))
    noverlap = int(nperseg * overlap)
    hop = nperseg - noverlap
    win = [0.5 - 0.5 * math.cos(2 * math.pi * k / nperseg) for k in range(nperseg)]
    win_power = sum(w * w for w in win)
    n_bins = nperseg // 2 + 1
    psd = [0.0] * n_bins
    count = 0
    start = 0
    while start + nperseg <= len(x):
        seg = [x[start + k] * win[k] for k in range(nperseg)]
        spectrum = np.fft.rfft(seg)  # the DFT itself, not scipy's welch
        for k in range(n_bins):
            psd[k] += abs(spectrum[k]) ** 2
        count += 1
        start += hop
    freqs = [k * fs / nperseg for k in range(n_bins)]
    out = []
    for k in range(n_bins):
        scale = 1.0 / (fs * win_power * count)
        v = psd[k] * scale
        if 0 < k < nperseg / 2:
            v *= 2.0
        out.append(v)
    return freqs, out


def oracle_mean_frequency(x, fs):
    freqs, psd = oracle_welch_psd(x, fs)
    total = sum(psd)
    return sum(f * p for f, p in zip(freqs, psd)) / total


def oracle_shannon_entropy(x, fs):
    _, psd = oracle_welch_psd(x, fs)
    total = sum(psd)
    h = -sum((p / total) * math.log2(p / total) for p in psd if p > 0)
    return h / math.log2(len(psd))


def oracle_power_bandwidth(x, fs):
    freqs, psd = oracle_welch_psd(x, fs)
    k = max(range(len(psd)), key=lambda i: psd[i])
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
    return right - left


# --- equivalence checks ----------------------------------------------------

def test_pitch_features_match_oracle():
    for track in random_tracks():
        p = list(track.cycle_periods)
        v = list(track.cycle_peaks)
        assert F.jitter(track) == pytest.approx(oracle_jitter(p), rel=REL)
        assert F.shimmer(track) == pytest.approx(oracle_shimmer(v), rel=REL)


def test_time_domain_features_match_oracle():
    for sig in random_signals():
        x = list(sig.samples)
        assert F.rms(sig) == pytest.approx(oracle_rms(x), rel=REL)
        assert F.zcr(sig) == pytest.approx(oracle_zcr(x), rel=REL, abs=1e-15)
        assert F.mean_energy(sig) == pytest.approx(oracle_mean_energy(x, FS), rel=REL)
        assert F.log_entropy(sig) == pytest.approx(oracle_log_entropy(x), rel=REL)
        assert F.sure_entropy(sig) == pytest.approx(oracle_sure_entropy(x), rel=REL)
        stats = F.descriptive_stats(sig)
        expected = oracle_stats(x)
        for name, value in expected.items():
            assert stats[name] == pytest.approx(value, rel=REL, abs=1e-12), name


def test_spectral_features_match_oracle():
    for sig in random_signals():
        x = list(sig.samples)
        assert F.mean_frequency(sig) == pytest.approx(
            oracle_mean_frequency(x, FS), rel=REL_SPECTRAL)
        assert F.shannon_entropy(sig) == pytest.approx(
            oracle_shannon_entropy(x, FS), rel=REL_SPECTRAL)
        assert F.power_bandwidth(sig) == pytest.approx(
            oracle_power_bandwidth(x, FS), rel=REL_SPECTRAL)


# --- the Welch PSD against scipy -------------------------------------------

PSD_REL = 1e-13


@pytest.mark.parametrize("window", ["hann"])
@pytest.mark.parametrize("n", [441, 640, 1024, 20000])
@pytest.mark.parametrize("fs", [16000, 44100, 48000])
def test_power_spectrum_matches_scipy_welch(fs, n, window):
    """One segment shorter than nperseg (odd and even length), exactly one
    full segment, and many overlapping segments with a ragged tail."""
    sp_signal = pytest.importorskip("scipy.signal")
    x = peak_normalize(np.random.default_rng([fs, n]).standard_normal(n))
    freqs, psd = F.power_spectrum(AudioSignal(samples=x, sample_rate=fs))
    nperseg = min(1024, n)
    want_freqs, want_psd = sp_signal.welch(
        x, fs=fs, window=sp_signal.get_window(window, nperseg), nperseg=nperseg,
        noverlap=nperseg // 2, detrend=False, scaling="density")
    np.testing.assert_array_equal(freqs, want_freqs)
    np.testing.assert_allclose(psd, want_psd, rtol=PSD_REL, atol=0)


def test_window_bit_equal_to_scipy():
    sp_signal = pytest.importorskip("scipy.signal")
    for n in range(1, 2049):
        np.testing.assert_array_equal(F._hann(n), sp_signal.get_window("hann", n))
