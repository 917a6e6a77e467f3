"""Every feature is checked against a direct, loop-based re-implementation
of its defining formula on random signals.  The oracles here deliberately
avoid the library's code paths (and numpy where practical)."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from voicepd import features as F
from voicepd.audio_io import AudioSignal, peak_normalize
from voicepd.errors import UndefinedFeatureError
from voicepd.pitch import _BLOCK_FRAMES, PitchTrack

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


# --- the whole-signal expressions the bounded working set replaced ---------
#
# descriptive_stats, zcr, log_entropy, sure_entropy and power_spectrum now
# reuse buffers and block the PSD's rFFT so that no step holds more than two
# signal-sized temporaries.  The expressions they replaced are kept here, and
# every value must match them bit for bit.

def previous_descriptive_stats(x):
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


def previous_zcr(x):
    sgn = np.where(x >= 0.0, 1.0, -1.0)
    return float(np.mean(np.abs(sgn[1:] - sgn[:-1]) / 2.0))


def previous_log_entropy(x, eps=1e-12):
    return float(np.sum(np.log(x * x + eps)))


def previous_sure_entropy(x, t=F.DEFAULT_SURE_THRESHOLD):
    below = int(np.count_nonzero(np.abs(x) <= t))
    return float(len(x) - below + np.sum(np.minimum(x * x, t * t)))


def previous_power_spectrum(x, fs):
    """The PSD as one 2-D rFFT over every segment at once."""
    nperseg = min(1024, len(x))
    step = nperseg - int(nperseg * 0.5)
    win = F._hann(nperseg)
    win = win * (1.0 / np.sqrt(np.cumsum(win * win)[-1] / (1.0 / fs)))
    spec = np.fft.rfft(sliding_window_view(x, nperseg)[::step] * win, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    psd = np.ascontiguousarray(power.T).mean(axis=1)
    psd[1:(nperseg + 1) // 2] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _replaced_cases():
    rng = np.random.default_rng(20251019)
    with_zeros = rng.standard_normal(1000)
    with_zeros[::3] = 0.0
    peaks = rng.uniform(-0.9, 0.9, 1001)
    peaks[[7, 500]] = [1.0, -1.0]
    return {
        "even": peak_normalize(rng.standard_normal(1000)),
        "odd": peak_normalize(rng.standard_normal(1001)),
        "exact_zeros": peak_normalize(with_zeros),
        "plus_minus_one_peaks": peaks,
        "all_negative": -peak_normalize(rng.uniform(0.05, 1.0, 999)),
        "constant": np.full(1000, 0.5),
        "silence": np.zeros(1000),
        "two_samples": np.array([1.0, -0.25]),
        "three_samples": np.array([0.0, -1.0, 0.5]),
        # one PSD segment shorter than nperseg, exactly one, and many segments
        # over several rFFT blocks with a ragged last block
        "one_short_segment": peak_normalize(rng.standard_normal(777)),
        "one_full_segment": peak_normalize(rng.standard_normal(1024)),
        "many_blocks": peak_normalize(rng.standard_normal(44100)),
        "pulse_train": peak_normalize(np.sin(np.arange(30001) * 0.05) ** 15),
    }


@pytest.mark.parametrize("name", sorted(_replaced_cases()))
def test_replaced_expressions_bit_equal(name):
    x = _replaced_cases()[name]
    sig = AudioSignal(samples=x, sample_rate=FS)
    got = F.descriptive_stats(sig)
    want = previous_descriptive_stats(x)
    assert list(got) == list(want)
    for key in want:
        assert _bits(got[key]) == _bits(want[key]), key
    assert _bits(F.zcr(sig)) == _bits(previous_zcr(x))
    assert _bits(F.log_entropy(sig)) == _bits(previous_log_entropy(x))
    assert _bits(F.sure_entropy(sig)) == _bits(previous_sure_entropy(x))
    for fs in (8000, 16000, 44100):
        freqs, psd = F.power_spectrum(AudioSignal(samples=x, sample_rate=fs))
        want_freqs, want_psd = previous_power_spectrum(x, fs)
        assert _bits(freqs) == _bits(want_freqs)
        assert _bits(psd) == _bits(want_psd)


def test_replaced_cases_cover_the_psd_blocks():
    segments = (44100 - 1024) // 512 + 1
    assert segments > 2 * _BLOCK_FRAMES and segments % _BLOCK_FRAMES != 0


def test_order_statistics_leave_the_samples_alone():
    x = peak_normalize(np.random.default_rng(3).standard_normal(1001))
    before = x.copy()
    F.descriptive_stats(AudioSignal(samples=x, sample_rate=FS))
    np.testing.assert_array_equal(x, before)


# --- the three spectral helpers spectral_stats replaced --------------------
#
# Each helper took the PSD and made its own zero-power check; the bandwidth
# found its band edges with two scan loops.  spectral_stats does one check and
# finds the edges with np.flatnonzero, and every value must match these bit
# for bit.

def previous_mean_frequency(freqs, psd):
    total = float(np.sum(psd))
    return float(np.sum(freqs * psd) / total)


def previous_shannon_entropy(freqs, psd):
    total = float(np.sum(psd))
    p = psd / total
    nz = p[p > 0.0]
    h = float(-np.sum(nz * np.log2(nz)))
    return h / math.log2(len(psd))


def previous_power_bandwidth(freqs, psd):
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


def _assert_spectral_stats_bit_equal(sig):
    freqs, psd = F.power_spectrum(sig)
    got = F.spectral_stats(sig)
    want = {
        "mean_frequency": previous_mean_frequency(freqs, psd),
        "shannon_entropy": previous_shannon_entropy(freqs, psd),
        "power_bandwidth_hz": previous_power_bandwidth(freqs, psd),
    }
    assert list(got) == list(want)
    for key in want:
        assert _bits(got[key]) == _bits(want[key]), key
    assert _bits(F.mean_frequency(sig)) == _bits(want["mean_frequency"])
    assert _bits(F.shannon_entropy(sig)) == _bits(want["shannon_entropy"])
    assert _bits(F.power_bandwidth(sig)) == _bits(want["power_bandwidth_hz"])


def _spectral_cases():
    t = np.arange(4096) / FS
    impulse = np.zeros(1024)
    impulse[512] = 1.0  # where the Hann window is 1: |X_k| = 1 in every bin
    cases = {name: x for name, x in _replaced_cases().items() if name != "silence"}
    cases.update(
        # peaks above bin 0, so the left edge is interpolated
        sine_440=np.sin(2 * np.pi * 440 * t),
        sine_plus_dc=0.5 + 0.5 * np.sin(2 * np.pi * 1000 * t),
        # the peak at the last bin: no bin right of it
        nyquist=np.cos(np.pi * np.arange(4096)),
        # a flat spectrum whose DC and Nyquist bins, not doubled, sit exactly at the level
        flat=impulse,
    )
    return cases


@pytest.mark.parametrize("name", sorted(_spectral_cases()))
def test_spectral_stats_bit_equal_to_the_replaced_helpers(name):
    x = _spectral_cases()[name]
    for fs in (8000, 16000, 44100):
        _assert_spectral_stats_bit_equal(AudioSignal(samples=x, sample_rate=fs))


def test_spectral_stats_bit_equal_on_random_signals():
    for sig in random_signals():
        _assert_spectral_stats_bit_equal(sig)


@pytest.mark.parametrize("psd, width", [([1, 1, 2, 1, 1], 40.0), ([4, 2, 2, 1], 20.0),
                                        ([1, 2, 2, 4], 20.0), ([3, 3, 3], 20.0)])
def test_bins_at_half_the_peak_stay_in_the_band(monkeypatch, psd, width):
    """The band is where the PSD stays >= peak/2: a bin exactly at the level is
    inside it, and an edge is interpolated only towards a bin below it."""
    freqs, psd = np.arange(len(psd)) * 10.0, np.array(psd, dtype=np.float64)
    monkeypatch.setattr(F, "power_spectrum", lambda signal: (freqs, psd))
    got = F.spectral_stats(AudioSignal(samples=np.zeros(2), sample_rate=FS))
    assert got["power_bandwidth_hz"] == width
    assert _bits(got["power_bandwidth_hz"]) == _bits(previous_power_bandwidth(freqs, psd))


def _edges(x):
    """(peak bin, last bin, left edge interpolated, right edge interpolated)."""
    _, psd = F.power_spectrum(AudioSignal(samples=x, sample_rate=FS))
    k = int(np.argmax(psd))
    level = psd[k] / 2.0
    return k, len(psd) - 1, bool(np.any(psd[:k] < level)), bool(np.any(psd[k + 1:] < level))


def test_spectral_cases_reach_every_edge_branch():
    cases = _spectral_cases()
    k, _, left, right = _edges(cases["sine_440"])
    assert k > 0 and left and right
    k, last, left, right = _edges(cases["nyquist"])
    assert k == last and left and not right
    _, _, left, right = _edges(cases["flat"])
    assert not left and not right
    k, _, left, right = _edges(cases["constant"])
    assert k == 0 and not left and right


def test_zero_power_is_one_reason_for_all_three():
    sig = AudioSignal(samples=np.zeros(1000), sample_rate=FS)
    reason = ("mean_frequency, shannon_entropy and power_bandwidth_hz "
              "undefined for zero-power signal")
    for feature in (F.spectral_stats, F.mean_frequency, F.shannon_entropy, F.power_bandwidth):
        with pytest.raises(UndefinedFeatureError, match=f"^{reason}$"):
            feature(sig)
