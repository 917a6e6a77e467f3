"""Library guards that the CLI never reaches: each bad call raises its own
exception with its own message, so a simplification cannot drop a check
unnoticed."""
import numpy as np
import pytest

from voicepd.audio_io import AudioSignal, frame_geometry, save_wav
from voicepd.classifiers import REGISTRY, train_many
from voicepd.data import LabeledDataset, Standardizer
from voicepd.errors import ConfigError, DataError, UndefinedFeatureError
from voicepd.evaluation import ConfusionMatrix, kfold
from voicepd.features import descriptive_stats, sure_entropy
from voicepd.pitch import PitchTrack
from voicepd.selection import chi2_scores
from voicepd.synth import SynthSpec, gen_blobs

_SIGNAL = AudioSignal(np.array([0.0, 0.5, -0.5, 0.25]), 16000)

# (id, call taking a scratch directory, exception, message fragment)
GUARDS = [
    ("save_wav_to_directory", lambda tmp: save_wav(_SIGNAL, str(tmp)),
     DataError, "cannot write"),
    *((f"{name}_empty_fit",
       lambda _, cls=cls: cls().fit(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
       DataError, "on an empty dataset")
      for name, cls in REGISTRY.items()),
    ("train_many_unknown_algorithm", lambda _: train_many("bogus", [gen_blobs(2)]),
     DataError, "unknown algorithm 'bogus'"),
    ("dataset_features_not_2d", lambda _: LabeledDataset(np.zeros(3), np.zeros(3)),
     DataError, "features must be a 2-D array"),
    ("dataset_lengths_differ", lambda _: LabeledDataset(np.zeros((3, 19)), np.zeros(2)),
     DataError, "features and labels must have equal length"),
    ("dataset_names_differ", lambda _: LabeledDataset(np.zeros((2, 3)), np.zeros(2)),
     DataError, "feature_names length must match feature columns"),
    ("standardizer_not_fitted", lambda _: Standardizer().transform(np.zeros((2, 3))),
     DataError, "standardizer not fitted"),
    ("confusion_matrix_shape", lambda _: ConfusionMatrix(np.zeros((2, 2))),
     DataError, "confusion matrix must be 3x3"),
    ("confusion_matrix_negative", lambda _: ConfusionMatrix(-np.eye(3)),
     DataError, "confusion matrix entries must be non-negative"),
    ("kfold_k_1", lambda _: kfold(gen_blobs(4), 1, 0), DataError, "k must be >= 2, got 1"),
    ("kfold_no_rows", lambda _: kfold(LabeledDataset(np.zeros((0, 19)), np.zeros(0)), 2, 0),
     DataError, "the dataset has no rows to split into folds"),
    ("chi2_one_bin", lambda _: chi2_scores(gen_blobs(2), bins=1),
     DataError, "bins must be >= 2, got 1"),
    ("sure_entropy_zero_threshold", lambda _: sure_entropy(_SIGNAL, 0.0),
     ValueError, "sure_entropy threshold must be positive"),
    ("descriptive_stats_one_sample",
     lambda _: descriptive_stats(AudioSignal(np.array([0.5]), 16000)),
     UndefinedFeatureError, "descriptive stats need at least 2 samples"),
    ("descriptive_stats_variance_square_underflows",
     lambda _: descriptive_stats(AudioSignal(1e-150 * np.array([1.0, -1.0, 1.0, 0.5]), 16000)),
     UndefinedFeatureError, "skewness and kurtosis undefined: the variance"),
    ("frame_geometry_zero_frame", lambda _: frame_geometry(16000, 0.0, 10.0),
     ValueError, "frame_ms and hop_ms must be positive"),
    ("pitch_track_lengths_differ", lambda _: PitchTrack([0.01, 0.01], [1.0]),
     ValueError, "cycle_periods and cycle_peaks must have equal length"),
    ("synth_zero_sample_rate", lambda _: SynthSpec(sample_rate=0).validate(),
     ConfigError, "sample_rate must be positive"),
    ("blobs_empty_class", lambda _: gen_blobs((2, 0, 2)),
     ConfigError, "n_per_class values must be >= 1"),
    ("blobs_zero_sigma", lambda _: gen_blobs(2, sigma=0.0),
     ConfigError, "separation and sigma must be positive"),
]


@pytest.mark.parametrize("call, exception, fragment",
                         [pytest.param(*row[1:], id=row[0]) for row in GUARDS])
def test_guard_raises(tmp_path, call, exception, fragment):
    with pytest.raises(exception) as caught:
        call(tmp_path)
    assert type(caught.value) is exception and fragment in str(caught.value)
    assert list(tmp_path.iterdir()) == []
