"""Voice-based dysphonia analysis: WAV ingestion, pitch/cycle detection,
19 acoustic features, chi-square ranking, and three-class classification."""

from .audio_io import AudioSignal, ManifestEntry, frame_signal, load_manifest, load_wav, save_wav
from .data import CLASS_NAMES, LabeledDataset, Standardizer, load_feature_csv, save_feature_csv
from .features import FEATURE_NAMES, extract_all
from .pitch import PitchConfig, PitchEstimate, PitchTrack, analyze_pitch, segment_cycles, track_pitch
from .selection import FeatureScore, chi2_scores, select_top_k
from .classifiers import ALGORITHMS, TrainedModel, train
from .evaluation import ConfusionMatrix, MetricsReport, cross_validate, evaluate, kfold, metrics, run_experiment, stratified_split
from .synth import SynthSpec, gen_blobs, gen_signal

__version__ = "0.1.0"
