import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicepd.audio_io import peak_normalize
from voicepd.errors import ConfigError
from voicepd.features import jitter, shimmer, mean_frequency
from voicepd.pitch import analyze_pitch
from voicepd.synth import GroundTruth, SynthSpec, gen_blobs, gen_signal


def oracle_pulse_train(spec):
    """The earlier pulse-train generator: one period drawn per loop step."""
    fs = spec.sample_rate
    n = int(round(spec.duration_s * fs))
    base_period = fs / spec.f0
    half_width = 3.0 * spec.jitter_pct / 200.0
    amp_ratio = 10.0 ** (-spec.shimmer_db / 20.0)
    rng = np.random.default_rng(spec.seed)

    onsets: list[int] = []
    amps: list[float] = []
    t = 0.0
    i = 0
    while True:
        if spec.jitter_pct > 0:
            period = base_period * (1.0 + rng.uniform(-half_width, half_width))
        else:
            period = base_period
        onset = int(round(t))
        if onset >= n:
            break
        onsets.append(onset)
        amps.append(1.0 if i % 2 == 0 else amp_ratio)
        t += period
        i += 1

    x = np.zeros(n)
    tau = base_period / 4.0
    bounds = onsets + [n]
    for a, (start, end) in zip(amps, zip(bounds[:-1], bounds[1:])):
        length = end - start
        x[start:end] = a * np.exp(-np.arange(length) / tau)

    periods = [(b - a) / fs for a, b in zip(onsets[:-1], onsets[1:])]
    peaks = amps[:-1]
    truth = GroundTruth(spec=spec, onset_samples=onsets,
                        cycle_periods_s=periods, cycle_peaks=peaks)
    return peak_normalize(x), truth


def assert_same_pulse_train(spec):
    signal, truth = gen_signal(spec)
    want_x, want_truth = oracle_pulse_train(spec)
    assert signal.samples.tobytes() == want_x.tobytes()
    assert truth == want_truth
    assert all(type(v) is int for v in truth.onset_samples)
    assert all(type(v) is float for v in truth.cycle_peaks)


class TestGenSignal:
    def test_unperturbed_train_measures_zero(self):
        sig, truth = gen_signal(SynthSpec(kind="pulse_train", f0=100, duration_s=2.0,
                                          sample_rate=48000))
        track = analyze_pitch(sig)
        assert jitter(track) == pytest.approx(0.0, abs=1e-9)
        assert shimmer(track) == pytest.approx(0.0, abs=1e-9)

    def test_programmed_jitter_recovered(self):
        sig, _ = gen_signal(SynthSpec(kind="pulse_train", f0=100, duration_s=3.0,
                                      sample_rate=48000, jitter_pct=1.0, seed=8))
        assert jitter(analyze_pitch(sig)) == pytest.approx(1.0, abs=0.2)

    def test_sine_mean_frequency(self):
        sig, _ = gen_signal(SynthSpec(kind="sine", f0=440, duration_s=1.0, sample_rate=16000))
        assert mean_frequency(sig) == pytest.approx(440, abs=16000 / 1024)

    def test_ground_truth_matches_track(self):
        sig, truth = gen_signal(SynthSpec(kind="pulse_train", f0=100, duration_s=2.0,
                                          sample_rate=48000))
        track = analyze_pitch(sig)
        assert abs(len(track) - len(truth.cycle_periods_s)) <= 1
        n = min(len(track), len(truth.cycle_periods_s))
        measured = np.sort(track.cycle_periods[:n])
        true = np.sort(np.array(truth.cycle_periods_s[:n]))
        assert np.max(np.abs(measured - true)) <= 1.0 / 48000

    def test_signal_invariants(self):
        for kind in ("pulse_train", "sine", "white_noise", "silence"):
            sig, _ = gen_signal(SynthSpec(kind=kind, duration_s=0.5, sample_rate=8000))
            assert len(sig.samples) > 0
            assert np.all(np.isfinite(sig.samples))
            assert np.max(np.abs(sig.samples)) <= 1.0

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            gen_signal(SynthSpec(kind="square"))
        with pytest.raises(ConfigError):
            gen_signal(SynthSpec(f0=5000, sample_rate=8000))
        with pytest.raises(ConfigError):
            gen_signal(SynthSpec(duration_s=0))
        with pytest.raises(ConfigError):
            gen_signal(SynthSpec(jitter_pct=-1))

    def test_seed_determinism(self):
        a, _ = gen_signal(SynthSpec(kind="white_noise", duration_s=0.5, seed=3))
        b, _ = gen_signal(SynthSpec(kind="white_noise", duration_s=0.5, seed=3))
        np.testing.assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("f0,fs", [(60, 8000), (100, 16000), (233.3, 44100),
                                       (400, 48000), (123.4, 22050)])
    @pytest.mark.parametrize("jitter_pct,shimmer_db", [(0, 0), (0, 0.7), (2.5, 0.7),
                                                       (10, 3), (30, 0)])
    def test_pulse_train_matches_loop_oracle(self, f0, fs, jitter_pct, shimmer_db):
        assert_same_pulse_train(SynthSpec(kind="pulse_train", f0=f0, duration_s=0.5,
                                          sample_rate=fs, jitter_pct=jitter_pct,
                                          shimmer_db=shimmer_db, seed=7))

    @given(f0=st.floats(60, 400), fs=st.sampled_from([8000, 16000, 22050, 44100, 48000]),
           duration_s=st.floats(1e-4, 0.3), jitter_pct=st.floats(0, 30),
           shimmer_db=st.floats(0, 6), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_pulse_train_matches_loop_oracle_any_spec(self, f0, fs, duration_s, jitter_pct,
                                                      shimmer_db, seed):
        assert_same_pulse_train(SynthSpec(kind="pulse_train", f0=f0, duration_s=duration_s,
                                          sample_rate=fs, jitter_pct=jitter_pct,
                                          shimmer_db=shimmer_db, seed=seed))


class TestGenBlobs:
    def test_separable_by_1nn(self):
        from voicepd.classifiers import train
        from voicepd.evaluation import evaluate, stratified_split
        ds = gen_blobs(20, separation=5.0, sigma=0.1, seed=0)
        train_idx, test_idx = stratified_split(ds, 0.25, seed=0)
        model = train("knn", ds.subset(train_idx), {"k": 1}, seed=0)
        cm = evaluate(model, ds.subset(test_idx))
        assert np.trace(cm.counts) == cm.total

    def test_table1_balance(self):
        ds = gen_blobs((22, 28, 30), seed=1)
        assert ds.class_counts() == {0: 22, 1: 28, 2: 30}
        assert len(ds) == 80

    def test_pairwise_center_distance(self):
        ds = gen_blobs(200, separation=5.0, sigma=0.01, seed=2)
        centers = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(centers[i] - centers[j])
                assert d == pytest.approx(5.0, rel=0.02)

    def test_seed_determinism(self):
        a = gen_blobs(5, seed=9)
        b = gen_blobs(5, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
