import numpy as np
import pytest

from voicepd.audio_io import AudioSignal
from voicepd.errors import ConfigError
from voicepd.pitch import (
    PitchConfig,
    _estimate_frames,
    analyze_pitch,
    segment_cycles,
    track_pitch,
)
from voicepd.synth import SynthSpec, gen_signal

CFG = PitchConfig()


def estimate_pitch(frame, fs, config):
    """Pitch estimate of a single frame."""
    return _estimate_frames(np.asarray(frame, dtype=np.float64)[np.newaxis], fs, config)[0]


class TestEstimatePitch:
    def test_pure_sine_200hz(self):
        fs = 16000
        t = np.arange(640) / fs
        frame = np.sin(2 * np.pi * 200 * t)
        est = estimate_pitch(frame, fs, CFG)
        assert est.voiced
        assert est.period_s == pytest.approx(0.005, abs=1.0 / fs)

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(123)
        unvoiced = sum(
            not estimate_pitch(rng.standard_normal(640), 16000, CFG).voiced
            for _ in range(100)
        )
        assert unvoiced >= 95

    def test_all_zero_frame(self):
        est = estimate_pitch(np.zeros(640), 16000, CFG)
        assert not est.voiced
        assert est.voicing_score == 0.0

    def test_bad_f0_range(self):
        with pytest.raises(ConfigError):
            estimate_pitch(np.zeros(640), 16000, PitchConfig(f0_min=500, f0_max=60))

    def test_lag_range_exceeds_frame(self):
        with pytest.raises(ConfigError, match="exceeds frame"):
            estimate_pitch(np.zeros(100), 16000, CFG)


class TestSegmentCycles:
    def test_perfect_pulse_train(self):
        fs = 8000
        x = np.zeros(801)
        onsets = np.arange(10) * 80
        tau = 20.0
        for o in onsets:
            n = min(80, len(x) - o)
            x[o:o + n] = np.exp(-np.arange(n) / tau)
        sig = AudioSignal(samples=x, sample_rate=fs)
        cfg = PitchConfig(frame_ms=60.0, hop_ms=10.0)
        track = segment_cycles(sig, track_pitch(sig, cfg), cfg)
        assert len(track) == 9
        np.testing.assert_allclose(track.cycle_periods, 80 / fs)

    def test_unvoiced_noise_empty(self):
        rng = np.random.default_rng(7)
        sig = AudioSignal(samples=rng.uniform(-1, 1, 8000), sample_rate=8000)
        track = analyze_pitch(sig, CFG)
        assert len(track) == 0

    def test_alternating_amplitudes(self):
        sig, _ = gen_signal(SynthSpec(kind="pulse_train", f0=100, duration_s=1.0,
                                      sample_rate=48000, shimmer_db=6.0206))
        track = analyze_pitch(sig, CFG)
        peaks = track.cycle_peaks
        assert len(peaks) >= 5
        expected = np.where(np.arange(len(peaks)) % 2 == 0, peaks[0], peaks[1])
        np.testing.assert_allclose(peaks, expected, rtol=1e-6)
        assert {round(v, 4) for v in peaks} == {1.0, 0.5}


class TestTrackProperties:
    def test_mean_period_converges(self):
        sig, _ = gen_signal(SynthSpec(kind="sine", f0=125, duration_s=2.0, sample_rate=16000))
        track = analyze_pitch(sig, CFG)
        assert len(track) > 50
        true_period = 1.0 / 125
        assert abs(np.mean(track.cycle_periods) - true_period) <= 1.0 / 16000

    def test_cycle_count_bounded_by_duration(self):
        sig, _ = gen_signal(SynthSpec(kind="pulse_train", f0=100, duration_s=2.0,
                                      sample_rate=48000))
        track = analyze_pitch(sig, CFG)
        min_period = 1.0 / CFG.f0_max
        assert len(track) <= sig.duration_s / min_period

    def test_shift_by_whole_periods_keeps_periods(self):
        spec = SynthSpec(kind="pulse_train", f0=100, duration_s=2.0, sample_rate=48000,
                         jitter_pct=1.0, seed=9)
        sig, _ = gen_signal(spec)
        shifted = AudioSignal(samples=np.roll(sig.samples, 3 * 480), sample_rate=48000)
        p1 = np.round(analyze_pitch(sig, CFG).cycle_periods * 48000).astype(int)
        p2 = np.round(analyze_pitch(shifted, CFG).cycle_periods * 48000).astype(int)
        c1 = np.bincount(p1, minlength=600)
        c2 = np.bincount(p2, minlength=600)
        # multisets agree up to a few edge cycles
        assert np.sum(np.abs(c1 - c2)) <= 8

    def test_median_filter_suppresses_isolated_octave_error(self):
        from voicepd.pitch import _median_smooth_runs
        run = [0.01, 0.01, 0.02, 0.01, 0.01]
        assert _median_smooth_runs(run) == [0.01] * 5
