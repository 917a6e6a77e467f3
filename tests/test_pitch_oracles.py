"""Block-batched pitch tracking and array-based segmentation are checked
against the per-frame and per-cycle loops they replaced.  The oracles here
are those loops, kept verbatim apart from names: one rFFT/irFFT pair per
frame, a list-based width-3 median, and one max |x| per cycle.  The oracle
ACF keeps the per-frame code's transform length (the next power of two >=
2 x frame length); the library's shorter 5-smooth length must agree."""

import numpy as np
import pytest

from voicepd import pitch
from voicepd.audio_io import AudioSignal, peak_normalize
from voicepd.errors import ConfigError
from voicepd.pitch import (
    _BLOCK_FRAMES,
    PitchConfig,
    _median_smooth_runs,
    _next_fast_len,
    _estimate_frames,
    _normalized_acf,
    segment_cycles,
    track_pitch,
)
from voicepd.synth import SynthSpec, gen_signal

SCORE_ABS = 1e-12


def estimate_pitch(frame, fs, config):
    """Pitch estimate of a single frame."""
    return _estimate_frames(np.asarray(frame, dtype=np.float64)[np.newaxis], fs, config)[0]


# --- oracles ---------------------------------------------------------------

def oracle_normalized_acf(x, max_lag):
    n = len(x)
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    spec = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1]
    if acf[0] <= 0.0:
        return np.zeros(max_lag + 1)
    return acf / acf[0]


def oracle_estimate_pitch(frame, fs, config):
    """(period_s or None, voicing_score) of one frame."""
    lag_min = max(int(np.ceil(fs / config.f0_max)), 1)
    lag_max = int(np.floor(fs / config.f0_min))
    upper = min(lag_max + 1, len(frame) - 1)
    acf = oracle_normalized_acf(np.asarray(frame, dtype=np.float64), upper)
    if upper == lag_max:
        acf = np.concatenate([acf, [-np.inf]])
    lags = np.arange(lag_min, lag_max + 1)
    vals = acf[lag_min:lag_max + 1]
    is_peak = (vals >= acf[lags - 1]) & (vals >= acf[lags + 1])
    if not np.any(is_peak):
        score = float(np.max(vals)) if len(vals) else 0.0
        return None, max(score, 0.0)
    best = int(np.argmax(np.where(is_peak, vals, -np.inf)))
    score = float(vals[best])
    if score < config.voicing_threshold:
        return None, max(score, 0.0)
    return (lag_min + best) / fs, score


def oracle_frame_geometry(fs, config):
    length = max(int(round(config.frame_ms * fs / 1000.0)), 1)
    hop = max(int(round(config.hop_ms * fs / 1000.0)), 1)
    return length, hop


def oracle_track_pitch(signal, config):
    x, fs = signal.samples, signal.sample_rate
    length, hop = oracle_frame_geometry(fs, config)
    if length > len(x):
        return []
    count = (len(x) - length) // hop + 1
    return [oracle_estimate_pitch(x[i * hop:i * hop + length], fs, config)
            for i in range(count)]


def oracle_median_smooth_runs(periods):
    out = list(periods)
    n = len(periods)
    i = 0
    while i < n:
        if periods[i] is None:
            i += 1
            continue
        j = i
        while j < n and periods[j] is not None:
            j += 1
        run = periods[i:j]
        if len(run) >= 3:
            padded = [run[0]] + run + [run[-1]]
            out[i:j] = [float(np.median(padded[k:k + 3])) for k in range(len(run))]
        i = j
    return out


def oracle_segment_cycles(signal, raw_periods, config):
    x, fs = signal.samples, signal.sample_rate
    frame_len, hop = oracle_frame_geometry(fs, config)
    n = len(x)
    periods = oracle_median_smooth_runs(raw_periods)
    all_periods, all_peaks = [], []
    i = 0
    m = len(periods)
    while i < m:
        if periods[i] is None:
            i += 1
            continue
        j = i
        while j < m and periods[j] is not None:
            j += 1
        start = i * hop
        end = min((j - 1) * hop + frame_len, n)
        w_end = min(start + int(periods[i] * fs) + 1, end)
        if w_end <= start:
            i = j
            continue
        anchor = start + int(np.argmax(x[start:w_end]))
        anchors = [anchor]
        while True:
            fi = min(max(anchor // hop, i), j - 1)
            p = periods[fi] * fs
            lo = anchor + int(0.75 * p)
            hi = anchor + int(1.25 * p) + 1
            if hi > end:
                break
            anchor = lo + int(np.argmax(x[lo:hi]))
            anchors.append(anchor)
        for a, b in zip(anchors[:-1], anchors[1:]):
            peak = float(np.max(np.abs(x[a:b])))
            if peak > 0.0:
                all_periods.append((b - a) / fs)
                all_peaks.append(peak)
        i = j
    return np.array(all_periods), np.array(all_peaks)


# --- signals ---------------------------------------------------------------

def pulse(fs, f0=110.0, jitter=1.5, shimmer=1.0, duration=1.0, seed=0):
    sig, _ = gen_signal(SynthSpec(kind="pulse_train", f0=f0, duration_s=duration,
                                  sample_rate=fs, jitter_pct=jitter,
                                  shimmer_db=shimmer, seed=seed))
    return sig


def noise(fs, n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    return AudioSignal(samples=peak_normalize(x), sample_rate=fs)


def sine(fs, f0, duration=1.0):
    t = np.arange(int(fs * duration)) / fs
    return AudioSignal(samples=np.sin(2 * np.pi * f0 * t + 0.3), sample_rate=fs)


def gapped(fs):
    """Voiced, silent, noisy and voiced again: several voiced runs."""
    a = pulse(fs, f0=95.0, seed=3, duration=0.5).samples
    b = noise(fs, fs // 4, seed=4).samples * 0.05
    c = pulse(fs, f0=180.0, jitter=3.0, shimmer=2.0, seed=5, duration=0.5).samples
    x = np.concatenate([a, np.zeros(fs // 5), b, c])
    return AudioSignal(samples=x, sample_rate=fs)


CASES = {
    "pulse_16k": (lambda: pulse(16000, seed=1), PitchConfig()),
    "pulse_44k": (lambda: pulse(44100, f0=130.0, seed=2), PitchConfig()),
    "pulse_48k": (lambda: pulse(48000, f0=220.0, jitter=2.5, shimmer=3.0, seed=7),
                  PitchConfig()),
    "pulse_48k_2s": (lambda: pulse(48000, f0=100.0, duration=2.0, seed=8), PitchConfig()),
    "gapped_16k": (lambda: gapped(16000), PitchConfig()),
    "gapped_44k": (lambda: gapped(44100), PitchConfig()),
    "white_noise": (lambda: noise(16000, 16000, seed=11), PitchConfig()),
    "silence": (lambda: AudioSignal(samples=np.zeros(16000), sample_rate=16000),
                PitchConfig()),
    "shorter_than_frame": (lambda: pulse(16000, duration=0.03), PitchConfig()),
    # frame count: exactly one block, one more than a block, and a ragged tail
    "one_block": (lambda: pulse(16000, duration=0.19, seed=12), PitchConfig()),
    "block_plus_one": (lambda: pulse(16000, duration=0.2, seed=13), PitchConfig()),
    "ragged_tail": (lambda: pulse(44100, duration=0.75, seed=14), PitchConfig()),
    # lag_max == frame_len - 1: the last lag is compared against -inf
    "lag_at_frame_edge": (lambda: pulse(8000, f0=26.0, jitter=0.0, shimmer=0.0, seed=15),
                          PitchConfig(f0_min=25.05, f0_max=500.0)),
    # a falling then rising ACF whose only local maximum is that last lag
    "slow_sine_at_frame_edge": (lambda: sine(8000, 13.0),
                                PitchConfig(f0_min=25.05, f0_max=500.0)),
    # no whole lag inside (f0_min, f0_max)
    "empty_lag_range": (lambda: pulse(16000, seed=16),
                        PitchConfig(f0_min=300.0, f0_max=301.0)),
    "low_threshold": (lambda: gapped(16000), PitchConfig(voicing_threshold=0.0)),
    "short_hop": (lambda: pulse(16000, seed=17), PitchConfig(frame_ms=30.0, hop_ms=3.0)),
    "pulse_8k": (lambda: pulse(8000, f0=120.0, seed=18), PitchConfig()),
    # cycle peaks from the negative half-waves: max |x| is -min x everywhere
    "negated_pulse_16k": (lambda: AudioSignal(samples=-pulse(16000, seed=22).samples,
                                              sample_rate=16000), PitchConfig()),
    "pulse_22k": (lambda: pulse(22050, f0=150.0, jitter=2.0, seed=19), PitchConfig()),
    # frame_len + lag_max + 1 is 900 = 2^2 3^2 5^2 (no slack in the FFT length)
    # and 901 (the length jumps to 960)
    "nfft_exact_smooth": (lambda: pulse(16000, f0=70.0, seed=20), PitchConfig(f0_min=61.7)),
    "nfft_just_above_smooth": (lambda: pulse(16000, f0=70.0, seed=21),
                               PitchConfig(f0_min=61.5)),
}


def required_acf_length(fs, config):
    frame_len, _ = oracle_frame_geometry(fs, config)
    return frame_len + int(np.floor(fs / config.f0_min)) + 1


def test_block_edge_cases_are_exercised():
    frames = {name: len(track_pitch(make(), cfg)) for name, (make, cfg) in CASES.items()}
    assert frames["one_block"] == _BLOCK_FRAMES
    assert frames["block_plus_one"] == _BLOCK_FRAMES + 1
    assert frames["ragged_tail"] % _BLOCK_FRAMES != 0
    assert frames["shorter_than_frame"] == 0
    assert frames["pulse_48k_2s"] > 5 * _BLOCK_FRAMES


@pytest.mark.parametrize("name,required,nfft", [
    ("pulse_16k", 907, 960),
    ("pulse_44k", 2500, 2500),
    ("nfft_exact_smooth", 900, 900),
    ("nfft_just_above_smooth", 901, 960),
])
def test_acf_transform_length(monkeypatch, name, required, nfft):
    """Every block is transformed at the smallest 5-smooth length >=
    frame_len + lag_max + 1, the bound the direct-sum test below checks."""
    make, cfg = CASES[name]
    sig = make()
    assert required_acf_length(sig.sample_rate, cfg) == required
    lengths = []

    def spy(frames, n, n_lags):
        lengths.append(n)
        return _normalized_acf(frames, n, n_lags)

    monkeypatch.setattr(pitch, "_normalized_acf", spy)
    track_pitch(sig, cfg)
    assert lengths and set(lengths) == {nfft}


def test_next_fast_len_brute_force():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(15) for b in range(10) for c in range(7)
                    if 2 ** a * 3 ** b * 5 ** c <= 20000)
    for n in range(1, 5001):
        assert _next_fast_len(n) == next(m for m in smooth if m >= n), n


@pytest.mark.parametrize("fs", [8000, 16000, 22050, 44100, 48000])
def test_acf_of_minimal_length_equals_direct_sums(fs):
    """nfft = frame_len + lag_max + 1, the shortest transform that keeps
    circular wrap-around out of lags 0..lag_max+1."""
    cfg = PitchConfig()
    frame_len, _ = oracle_frame_geometry(fs, cfg)
    n_lags = int(np.floor(fs / cfg.f0_min)) + 2
    frames = np.random.default_rng(fs).standard_normal((4, frame_len))
    frames[:, 0] = frames[:, -1] = 1.0  # the wrapped-in term r(frame_len - 1) is x[0] x[-1]
    got = _normalized_acf(frames, required_acf_length(fs, cfg), n_lags)
    for row, acf in zip(frames, got):
        sums = np.array([row[:frame_len - k] @ row[k:] for k in range(n_lags)])
        np.testing.assert_allclose(acf, sums / sums[0], rtol=0, atol=SCORE_ABS)


def test_acf_of_a_block_equals_acf_of_each_frame():
    """A 32-frame 44.1-kHz block's spectra fill 640 KB, past the size from
    which numpy elides the temporary of `a * f(a)`; the spectrum product
    must still be the one each frame gets alone, bit for bit."""
    fs, cfg = 44100, PitchConfig()
    frame_len, hop = oracle_frame_geometry(fs, cfg)
    x = pulse(fs, f0=130.0, seed=2).samples
    frames = np.stack([x[i * hop:i * hop + frame_len] for i in range(_BLOCK_FRAMES)])
    nfft, n_lags = required_acf_length(fs, cfg), int(np.floor(fs / cfg.f0_min)) + 2
    block = _normalized_acf(frames, nfft, n_lags)
    for i, frame in enumerate(frames):
        alone = _normalized_acf(frame[np.newaxis], nfft, n_lags)[0]
        assert block[i].tobytes() == alone.tobytes(), i


@pytest.mark.parametrize("name", sorted(CASES))
def test_track_pitch_matches_oracle(name):
    make, cfg = CASES[name]
    sig = make()
    got = track_pitch(sig, cfg)
    want = oracle_track_pitch(sig, cfg)
    assert len(got) == len(want)
    assert [e.period_s for e in got] == [p for p, _ in want]
    np.testing.assert_allclose([e.voicing_score for e in got], [s for _, s in want],
                               rtol=0, atol=SCORE_ABS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_segment_cycles_matches_oracle(name):
    make, cfg = CASES[name]
    sig = make()
    estimates = track_pitch(sig, cfg)
    track = segment_cycles(sig, estimates, cfg)
    periods, peaks = oracle_segment_cycles(sig, [e.period_s for e in estimates], cfg)
    np.testing.assert_array_equal(track.cycle_periods, periods)
    np.testing.assert_array_equal(track.cycle_peaks, peaks)


def test_voiced_cases_have_cycles():
    for name in ("pulse_16k", "pulse_44k", "pulse_48k", "gapped_16k", "ragged_tail",
                 "negated_pulse_16k",
                 "pulse_8k", "pulse_22k", "nfft_exact_smooth", "nfft_just_above_smooth"):
        make, cfg = CASES[name]
        sig = make()
        assert len(segment_cycles(sig, track_pitch(sig, cfg), cfg)) > 10, name


@pytest.mark.parametrize("fs", [8000, 16000, 22050, 44100, 48000])
def test_estimate_pitch_matches_oracle(fs):
    rng = np.random.default_rng(fs)
    cfg = PitchConfig()
    length = int(round(cfg.frame_ms * fs / 1000.0))
    x = pulse(fs, seed=21).samples
    frames = [x[s:s + length] for s in rng.integers(0, len(x) - length, 20)]
    frames += [rng.standard_normal(length), np.zeros(length)]
    for frame in frames:
        est = estimate_pitch(frame, fs, cfg)
        period, score = oracle_estimate_pitch(frame, fs, cfg)
        assert est.period_s == period
        assert est.voicing_score == pytest.approx(score, rel=0, abs=SCORE_ABS)


def test_estimate_pitch_errors_unchanged():
    with pytest.raises(ConfigError, match="f0_min"):
        estimate_pitch(np.zeros(640), 16000, PitchConfig(f0_min=500, f0_max=60))
    with pytest.raises(ConfigError, match="exceeds frame length 100"):
        estimate_pitch(np.zeros(100), 16000, PitchConfig())


def test_median_smoothing_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        values = rng.choice([0.004, 0.005, 0.01, 0.02], n) + rng.uniform(0, 1e-3, n)
        voiced = rng.random(n) < 0.8
        periods = [float(v) if keep else None for v, keep in zip(values, voiced)]
        # the array form marks an unvoiced frame with NaN
        np.testing.assert_array_equal(_median_smooth_runs(np.array(periods, dtype=np.float64)),
                                      np.array(oracle_median_smooth_runs(periods), dtype=np.float64))
