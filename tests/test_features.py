import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicepd import features as F
from voicepd.audio_io import AudioSignal, peak_normalize
from voicepd.errors import UndefinedFeatureError
from voicepd.pitch import PitchTrack
from voicepd.synth import SynthSpec, gen_signal


def sig(samples, fs=8000):
    return AudioSignal(samples=np.asarray(samples, dtype=np.float64), sample_rate=fs)


def track(periods, peaks=None):
    periods = np.asarray(periods, dtype=np.float64)
    if peaks is None:
        peaks = np.ones_like(periods)
    return PitchTrack(cycle_periods=periods, cycle_peaks=np.asarray(peaks, dtype=np.float64))


class TestJitter:
    def test_perfect_periodicity(self):
        assert F.jitter(track([80, 80, 80])) == 0.0

    def test_hand_case(self):
        assert F.jitter(track([100, 102, 98, 100])) == pytest.approx(8 / 3, abs=1e-9)

    def test_too_few_cycles(self):
        with pytest.raises(UndefinedFeatureError, match="jitter"):
            F.jitter(track([80]))

    def test_programmed_jitter(self):
        spec = SynthSpec(kind="pulse_train", f0=100, duration_s=3.0,
                         sample_rate=48000, jitter_pct=1.0, seed=4)
        signal, _ = gen_signal(spec)
        from voicepd.pitch import analyze_pitch
        measured = F.jitter(analyze_pitch(signal))
        assert measured == pytest.approx(1.0, abs=0.2)


class TestShimmer:
    def test_constant_amplitude(self):
        assert F.shimmer(track([80, 80, 80], [0.7, 0.7, 0.7])) == 0.0

    def test_hand_case(self):
        expected = 20 * math.log10(2)
        assert F.shimmer(track([1, 1, 1, 1], [1, 2, 1, 2])) == pytest.approx(expected, abs=1e-9)

    def test_zero_peak_rejected(self):
        with pytest.raises(UndefinedFeatureError):
            F.shimmer(track([1, 1], [1.0, 0.0]))

    def test_programmed_alternation(self):
        spec = SynthSpec(kind="pulse_train", f0=100, duration_s=3.0,
                         sample_rate=48000, shimmer_db=6.02)
        signal, _ = gen_signal(spec)
        from voicepd.pitch import analyze_pitch
        measured = F.shimmer(analyze_pitch(signal))
        assert measured == pytest.approx(6.02, abs=0.5)


class TestRms:
    def test_constant(self):
        assert F.rms(sig([0.5] * 50)) == pytest.approx(0.5, abs=1e-12)

    def test_hand_case(self):
        assert F.rms(sig([0.3, 0.4])) == pytest.approx(math.sqrt(0.125), abs=1e-9)

    def test_unit_sine(self):
        fs = 8000
        t = np.arange(fs) / fs
        assert F.rms(sig(np.sin(2 * np.pi * 100 * t), fs)) == pytest.approx(1 / math.sqrt(2), abs=1e-3)


class TestZcr:
    def test_strictly_positive(self):
        assert F.zcr(sig([0.1, 0.5, 0.9, 0.2])) == 0.0

    def test_alternating(self):
        assert F.zcr(sig([1, -1] * 50)) == pytest.approx(1.0, abs=1e-12)

    def test_sine_100hz_at_8khz(self):
        fs = 8000
        t = np.arange(fs) / fs
        value = F.zcr(sig(np.sin(2 * np.pi * 100 * t + 0.1), fs))
        assert value == pytest.approx(0.025, rel=0.05)

    def test_too_short(self):
        with pytest.raises(UndefinedFeatureError):
            F.zcr(sig([1.0]))


class TestMeanFrequency:
    def test_440_tone(self, sine_440):
        bin_width = 16000 / 1024
        assert F.mean_frequency(sine_440) == pytest.approx(440, abs=bin_width)

    def test_white_noise_centroid(self):
        fs = 8000
        vals = []
        for seed in range(20):
            s, _ = gen_signal(SynthSpec(kind="white_noise", duration_s=1.0,
                                        sample_rate=fs, seed=seed))
            vals.append(F.mean_frequency(s))
        assert np.mean(vals) == pytest.approx(fs / 4, rel=0.05)

    def test_dc_only(self):
        # the periodic Hann window's DFT is N/2 at bin 0 and -N/4 at bins +-1, so a
        # constant signal has PSD 1/4 at DC and 2 x 1/16 at bin 1: centroid f1 / 3
        fs = 8000
        value = F.mean_frequency(sig([1.0] * 4096, fs))
        assert value == pytest.approx(fs / 1024 / 3, rel=1e-9)

    def test_zero_power_guard(self):
        with pytest.raises(UndefinedFeatureError):
            F.mean_frequency(sig([0.0] * 100))


class TestMeanEnergy:
    def test_constant(self):
        assert F.mean_energy(sig([0.5] * 8000)) == pytest.approx(0.25, abs=1e-12)

    def test_unit_sine(self):
        fs = 8000
        t = np.arange(2 * fs) / fs
        assert F.mean_energy(sig(np.sin(2 * np.pi * 100 * t), fs)) == pytest.approx(0.5, abs=1e-3)

    def test_silence(self):
        assert F.mean_energy(sig([0.0] * 8000)) == 0.0


class TestDescriptiveStats:
    def test_hand_case(self):
        stats = F.descriptive_stats(sig(np.array([1, 2, 3, 4, 5]) / 5.0))
        assert stats["maximum"] == 1.0
        assert stats["minimum"] == 0.2
        assert stats["amplitude_mean"] == pytest.approx(0.6)
        assert stats["median"] == pytest.approx(0.6)
        assert stats["variance"] == pytest.approx(2.5 / 25, abs=1e-12)
        assert stats["skewness"] == pytest.approx(0.0, abs=1e-12)
        assert stats["iqr"] == pytest.approx(0.4, abs=1e-12)

    def test_symmetric_zero_skew(self):
        x = np.linspace(-0.9, 0.9, 21)
        stats = F.descriptive_stats(sig(x))
        assert stats["skewness"] == pytest.approx(0.0, abs=1e-9)
        assert stats["amplitude_mean"] == pytest.approx(0.0, abs=1e-12)

    def test_normal_sample_moments(self):
        rng = np.random.default_rng(20240811)
        x = peak_normalize(rng.standard_normal(10**6))
        stats = F.descriptive_stats(sig(x))
        assert stats["kurtosis"] == pytest.approx(3.0, abs=0.1)
        assert stats["skewness"] == pytest.approx(0.0, abs=0.05)

    def test_std_is_sqrt_variance(self):
        rng = np.random.default_rng(3)
        stats = F.descriptive_stats(sig(peak_normalize(rng.standard_normal(500))))
        assert stats["std_dev"] == pytest.approx(math.sqrt(stats["variance"]), rel=1e-9)


class TestEntropies:
    def test_shannon_pure_tone_rectangular(self):
        # a bin-centred tone leaks through the Hann window into its two neighbours
        # with amplitudes 1/4, 1/2, 1/4, so the normalized PSD over the 513 bins is
        # 1/6, 2/3, 1/6 on those three and zero elsewhere
        fs = 16000
        t = np.arange(8192) / fs
        tone = sig(np.sin(2 * np.pi * 500 * t), fs)  # 500 Hz = bin 32 of 1024
        shares = np.array([1 / 6, 2 / 3, 1 / 6])
        expected = -np.sum(shares * np.log2(shares)) / math.log2(513)
        assert F.shannon_entropy(tone) == pytest.approx(expected, rel=1e-9)

    def test_shannon_white_noise(self):
        vals = []
        for seed in range(10):
            s, _ = gen_signal(SynthSpec(kind="white_noise", duration_s=1.0,
                                        sample_rate=8000, seed=seed))
            vals.append(F.shannon_entropy(s))
        assert np.mean(vals) >= 0.9

    def test_log_entropy_unit_samples(self):
        assert F.log_entropy(sig([1.0, -1.0, 1.0])) == pytest.approx(0.0, abs=1e-9)

    def test_log_entropy_silence_floor(self):
        n = 50
        assert F.log_entropy(sig([0.0] * n)) == pytest.approx(n * math.log(1e-12))

    def test_sure_silence(self):
        assert F.sure_entropy(sig([0.0] * 10)) == 0.0

    def test_sure_hand_cases(self):
        assert F.sure_entropy(sig([1.0, 1.0])) == pytest.approx(2.08, abs=1e-12)
        assert F.sure_entropy(sig([0.1])) == pytest.approx(0.01, abs=1e-12)


class TestPowerBandwidth:
    def test_pure_tone_narrow(self, sine_440):
        bin_width = 16000 / 1024
        assert F.power_bandwidth(sine_440) <= 2 * bin_width

    def test_white_noise_wide(self):
        fs = 8000
        vals = []
        for seed in range(20):
            s, _ = gen_signal(SynthSpec(kind="white_noise", duration_s=8.0,
                                        sample_rate=fs, seed=seed))
            vals.append(F.power_bandwidth(s))
        assert np.mean(vals) >= 0.5 * fs / 2

    def test_grows_with_modulation_depth(self):
        # narrowband noise: tone with random-walk phase jitter; linewidth
        # grows with the phase-step depth
        fs = 8000
        rng = np.random.default_rng(5)
        steps = rng.standard_normal(8 * fs)
        widths = []
        for depth in (0.0, 0.2, 0.4):
            phase = 2 * np.pi * 1000 * np.arange(8 * fs) / fs + depth * np.cumsum(steps)
            widths.append(F.power_bandwidth(sig(np.sin(phase), fs)))
        assert widths[0] < widths[1] < widths[2]


class TestExtractAll:
    def test_synthetic_voiced_train(self):
        spec = SynthSpec(kind="pulse_train", f0=100, duration_s=2.0,
                         sample_rate=48000, jitter_pct=1.0, seed=2)
        signal, _ = gen_signal(spec)
        from voicepd.pitch import analyze_pitch
        row = F.extract_all(signal, analyze_pitch(signal))
        assert row.dtype == np.float64 and row.shape == (len(F.FEATURE_NAMES),)
        assert np.all(np.isfinite(row))
        vec = dict(zip(F.FEATURE_NAMES, row))
        assert vec["jitter_pct"] == pytest.approx(1.0, abs=0.2)
        assert vec["jitter_pct"] >= 0 and vec["shimmer_db"] >= 0
        assert vec["minimum"] <= vec["median"] <= vec["maximum"]
        assert vec["std_dev"]**2 == pytest.approx(vec["variance"], rel=1e-9)
        assert 0 <= vec["zcr"] <= 1

    def test_row_in_feature_names_order(self):
        spec = SynthSpec(kind="pulse_train", f0=120, duration_s=1.0, sample_rate=16000,
                         jitter_pct=1.0, shimmer_db=0.5, seed=4)
        signal, _ = gen_signal(spec)
        from voicepd.pitch import analyze_pitch
        t = analyze_pitch(signal)
        want = {**F.descriptive_stats(signal),
                "mean_frequency": F.mean_frequency(signal), "shimmer_db": F.shimmer(t),
                "log_entropy": F.log_entropy(signal),
                "power_bandwidth_hz": F.power_bandwidth(signal), "jitter_pct": F.jitter(t),
                "mean_energy": F.mean_energy(signal), "rms": F.rms(signal),
                "shannon_entropy": F.shannon_entropy(signal), "zcr": F.zcr(signal),
                "sure_entropy": F.sure_entropy(signal)}
        assert F.extract_all(signal, t).tolist() == [want[n] for n in F.FEATURE_NAMES]

    def test_silence_rejected(self):
        signal, _ = gen_signal(SynthSpec(kind="silence", duration_s=1.0, sample_rate=8000))
        from voicepd.pitch import analyze_pitch
        with pytest.raises(UndefinedFeatureError):
            F.extract_all(signal, analyze_pitch(signal))


SCALE_INVARIANT = ("zcr", "shannon_entropy", "skewness", "kurtosis")


class TestInvariances:
    @given(c=st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(99)
        x = peak_normalize(rng.standard_normal(2048))
        a, b = sig(x), sig(c * x)
        assert F.zcr(a) == pytest.approx(F.zcr(b), rel=1e-6)
        assert F.shannon_entropy(a) == pytest.approx(F.shannon_entropy(b), rel=1e-6)
        sa, sb = F.descriptive_stats(a), F.descriptive_stats(b)
        assert sa["skewness"] == pytest.approx(sb["skewness"], rel=1e-6, abs=1e-9)
        assert sa["kurtosis"] == pytest.approx(sb["kurtosis"], rel=1e-6)
        assert F.rms(b) == pytest.approx(c * F.rms(a), rel=1e-9)
        assert sb["maximum"] == pytest.approx(c * sa["maximum"], rel=1e-9)
        assert sb["std_dev"] == pytest.approx(c * sa["std_dev"], rel=1e-9)

    @given(c=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_jitter_and_shimmer_scale_free(self, c):
        t = track([100, 102, 98, 101], [0.5, 0.8, 0.4, 0.7])
        scaled_amp = track([100, 102, 98, 101], np.array([0.5, 0.8, 0.4, 0.7]) * 0.9)
        assert F.jitter(track(np.array([100, 102, 98, 101]) * c)) == pytest.approx(F.jitter(t), rel=1e-9)
        assert F.shimmer(scaled_amp) == pytest.approx(F.shimmer(t), rel=1e-9)

    def test_time_reversal(self):
        rng = np.random.default_rng(17)
        x = peak_normalize(rng.standard_normal(4096))
        a, b = sig(x), sig(x[::-1].copy())
        for fn, rel in ((F.rms, 1e-12), (F.zcr, 1e-12), (F.shannon_entropy, 1e-4)):
            assert fn(a) == pytest.approx(fn(b), rel=rel)
        sa, sb = F.descriptive_stats(a), F.descriptive_stats(b)
        assert sa["variance"] == pytest.approx(sb["variance"], rel=1e-12)
        assert sa["kurtosis"] == pytest.approx(sb["kurtosis"], rel=1e-12)

    def test_negation_flips_skew_and_extremes(self):
        rng = np.random.default_rng(18)
        x = peak_normalize(rng.standard_normal(1024) ** 3)
        sa = F.descriptive_stats(sig(x))
        sb = F.descriptive_stats(sig(-x))
        assert sb["skewness"] == pytest.approx(-sa["skewness"], rel=1e-9)
        assert sb["maximum"] == pytest.approx(-sa["minimum"], rel=1e-12)
        assert sb["minimum"] == pytest.approx(-sa["maximum"], rel=1e-12)

    def test_spectral_ranges(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            s = sig(peak_normalize(rng.standard_normal(4000)))
            nyquist = s.sample_rate / 2
            assert 0 <= F.mean_frequency(s) <= nyquist
            assert F.power_bandwidth(s) <= nyquist
