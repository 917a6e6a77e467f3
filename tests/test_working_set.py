"""The per-recording path of `extract` holds at most one signal-sized
temporary besides the decoded samples, and kNN prediction no
(queries x rows x features) tensor.

tracemalloc sees numpy's data buffers, so the traced peak of one recording
through load_wav -> track_pitch -> segment_cycles -> extract_all bounds the
working set.  Two signal-sized arrays (the samples plus one) come to
2 x samples.nbytes; the bound leaves a little room for the block-sized rFFT
buffers, the per-frame pitch estimates and the PSD's power table.  Those
are a larger share of a shorter recording, whose bound is looser.
"""

import tracemalloc

import numpy as np

from voicepd import audio_io
from voicepd.classifiers import KNearestNeighbors
from voicepd.features import extract_all
from voicepd.pitch import PitchConfig, segment_cycles, track_pitch
from voicepd.synth import SynthSpec, gen_signal

MAX_RATIO = 2.3


def _traced_peak(fn, *args):
    """Bytes fn(*args) allocates at its peak beyond what was live before."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _one_recording(path, config):
    signal = audio_io.load_wav(path)
    track = segment_cycles(signal, track_pitch(signal, config), config)
    extract_all(signal, track, config)
    return signal.samples.nbytes


def _recording_peak(tmp_path, duration_s):
    """Traced peak of one 44.1-kHz pulse-train recording over its samples' bytes."""
    signal, _ = gen_signal(SynthSpec(kind="pulse_train", f0=120.0, duration_s=duration_s,
                                     sample_rate=44100, jitter_pct=1.0, shimmer_db=0.5,
                                     seed=3))
    path = str(tmp_path / "recording.wav")
    audio_io.save_wav(signal, path)
    del signal
    config = PitchConfig()
    _one_recording(path, config)  # warm-up: FFT plan caches and lazy imports
    peak, nbytes = _traced_peak(_one_recording, path, config)
    return peak / nbytes


def test_ten_second_recording_peak(tmp_path):
    ratio = _recording_peak(tmp_path, 10.0)
    assert ratio <= MAX_RATIO, f"peak {ratio:.2f} x samples.nbytes"


def test_two_second_recording_peak(tmp_path):
    """The benchmark's recording length, where the block buffers weigh more."""
    ratio = _recording_peak(tmp_path, 2.0)
    assert ratio <= 2.8, f"peak {ratio:.2f} x samples.nbytes"


def test_knn_predict_peak():
    """The (queries x rows) distance matrix and its argsort set the peak;
    a difference tensor over 19 features would be 19 times the matrix."""
    rng = np.random.default_rng(0)
    knn = KNearestNeighbors(k=5).fit(rng.standard_normal((500, 19)),
                                     rng.integers(0, 3, size=500))
    queries = rng.standard_normal((200, 19))
    knn.predict(queries[:2])  # warm-up
    matrix = 200 * 500 * 8
    peak, _ = _traced_peak(knn.predict, queries)
    assert peak <= 3 * matrix, f"peak {peak / matrix:.2f} x the distance matrix"
