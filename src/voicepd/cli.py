"""Command-line surface: synth, extract, rank, evaluate, plotdata.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
All commands are deterministic given (inputs, config, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import audio_io, evaluation
from .classifiers import ALGORITHMS, REGISTRY
from .data import LabeledDataset, load_feature_csv, open_output, save_feature_csv
from .errors import ConfigError, DataError, VoicePDError
from .features import FEATURE_NAMES, FeatureConfig, extract_all
from .pitch import PitchConfig, analyze_pitch
from .selection import chi2_scores
from .synth import SynthSpec, gen_signal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_KIND_ALIASES = {"pulse": "pulse_train", "noise": "white_noise"}

# accepted Python types per RunConfig annotation, lower bounds of int fields,
# and the float fields that must be > 0; None passes both bounds
_FIELD_TYPES = {"int": (int,), "float": (int, float),
                "int | None": (int, type(None)), "float | None": (int, float, type(None))}
_MINIMUMS = {"seed": 0, "bins": 2, "cv_k": 2, "knn_k": 1, "tree_max_depth": 1,
             "tree_min_leaf": 1, "svm_epochs": 1, "nn_hidden": 1, "nn_epochs": 1, "nn_batch": 1}
_POSITIVE = ("frame_ms", "hop_ms", "f0_min", "sure_threshold", "svm_lambda", "nn_lr",
             "nb_var_floor")


@dataclass
class RunConfig:
    """Every tunable of the pipeline, read from a JSON file and flags.

    A model hyperparameter left at None takes its constructor's default.
    """

    seed: int = 0
    frame_ms: float = PitchConfig.frame_ms
    hop_ms: float = PitchConfig.hop_ms
    f0_min: float = PitchConfig.f0_min
    f0_max: float = PitchConfig.f0_max
    voicing_threshold: float = PitchConfig.voicing_threshold
    sure_threshold: float = FeatureConfig.sure_threshold
    bins: int = 10
    top_k: int | None = None
    test_fraction: float = 0.15
    cv_k: int = 10
    knn_k: int | None = None
    tree_max_depth: int | None = None
    tree_min_leaf: int | None = None
    nb_var_floor: float | None = None
    svm_lambda: float | None = None
    svm_epochs: int | None = None
    nn_hidden: int | None = None
    nn_lr: float | None = None
    nn_epochs: int | None = None
    nn_batch: int | None = None

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise VoicePDError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ConfigError on a value of the wrong type or out of range."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            allowed = _FIELD_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"config {f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"config {f.name} must be finite, got {value!r}")
        for name, low in _MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"config {name} must be >= {low}, got {value}")
        for name in _POSITIVE:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"config {name} must be > 0, got {value}")
        if self.f0_min >= self.f0_max:
            raise ConfigError(f"config f0_min must be < f0_max, got {self.f0_min} >= {self.f0_max}")
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ConfigError(
                f"config voicing_threshold must be in [0, 1], got {self.voicing_threshold}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"config test_fraction must be in (0, 1), got {self.test_fraction}")

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            pitch=PitchConfig(
                frame_ms=self.frame_ms, hop_ms=self.hop_ms,
                f0_min=self.f0_min, f0_max=self.f0_max,
                voicing_threshold=self.voicing_threshold,
            ),
            sure_threshold=self.sure_threshold,
        )

    def hyperparams(self, algorithm: str) -> dict:
        """Constructor arguments of `algorithm`'s model from the fields that are set."""
        fields = REGISTRY[algorithm][1]
        return {arg: getattr(self, name) for name, arg in fields.items()
                if getattr(self, name) is not None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(p: argparse.ArgumentParser, fields: list[str]) -> None:
    annotations = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    p.add_argument("--config", help="JSON config file providing defaults")
    for name in fields:
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                       type=int if annotations[name].startswith("int") else float)


def _merge_config(args: argparse.Namespace, fields: list[str]) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


_EXTRACT_FIELDS = ["seed", "frame_ms", "hop_ms", "f0_min", "f0_max",
                   "voicing_threshold", "sure_threshold"]
_EVAL_FIELDS = ["seed", "bins", "top_k", "test_fraction", "cv_k",
                *(name for _, fields, _ in REGISTRY.values() for name in fields)]


def cmd_extract(args) -> int:
    cfg = _merge_config(args, _EXTRACT_FIELDS)
    feature_cfg = cfg.feature_config()
    entries = audio_io.load_manifest(args.manifest)
    sidecar = args.out + ".rejects.csv"
    # create both outputs before the first recording is decoded, so an --out
    # that cannot be written fails at once
    for path in (args.out, sidecar):
        open_output(path).close()
    rows, labels, rejects = [], [], []
    for entry in entries:
        try:
            signal = audio_io.load_wav(entry.path)
            track = analyze_pitch(signal, feature_cfg.pitch)
            row = extract_all(signal, track, feature_cfg)
        except VoicePDError as exc:
            rejects.append((entry.path, str(exc)))
            continue
        rows.append(row)
        labels.append(entry.label)
    features = np.array(rows) if rows else np.empty((0, len(FEATURE_NAMES)))
    dataset = LabeledDataset(features=features, labels=np.array(labels, dtype=np.int64))
    save_feature_csv(args.out, dataset)
    with open_output(sidecar) as fh:
        fh.write("path,reason\n")
        for path, reason in rejects:
            fh.write(f"{path},{json.dumps(reason)}\n")
    if not rows:
        raise DataError(f"no recording was accepted ({len(rejects)} rejected; "
                        f"reasons in {sidecar})")
    print(f"wrote {len(rows)} rows to {args.out} ({len(rejects)} rejected)")
    return EXIT_OK


def cmd_rank(args) -> int:
    cfg = _merge_config(args, ["bins"])
    dataset = load_feature_csv(args.features)
    scores = chi2_scores(dataset, bins=cfg.bins)
    ranked = sorted(scores, key=lambda s: s.rank)
    with open_output(args.out) as fh:
        fh.write("rank,feature,chi2\n")
        for s in ranked:
            fh.write(f"{s.rank},{s.feature_name},{s.chi2!r}\n")
    print(f"wrote {len(ranked)} ranked features to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _merge_config(args, _EVAL_FIELDS)
    dataset = load_feature_csv(args.features)
    report = evaluation.run_experiment(
        dataset, args.algorithm, seed=cfg.seed,
        test_fraction=cfg.test_fraction, cv_k=cfg.cv_k,
        hyperparams=cfg.hyperparams(args.algorithm), bins=cfg.bins, top_k=cfg.top_k,
    )
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open_output(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_synth(args) -> int:
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    spec = SynthSpec(
        kind=kind, f0=args.f0, duration_s=args.duration,
        sample_rate=args.sample_rate, jitter_pct=args.jitter,
        shimmer_db=args.shimmer, seed=args.seed,
    )
    signal, truth = gen_signal(spec)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create directory {args.out_dir!r}: {exc.strerror}") from None
    name = args.name or (
        f"{kind}_f{args.f0:g}_j{args.jitter:g}_s{args.shimmer:g}_seed{args.seed}"
    )
    wav_path = os.path.join(args.out_dir, name + ".wav")
    json_path = os.path.join(args.out_dir, name + ".json")
    audio_io.save_wav(signal, wav_path)
    with open_output(json_path) as fh:
        fh.write(truth.to_json() + "\n")
    print(f"wrote {wav_path} and {json_path}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    dataset = load_feature_csv(args.features)
    if args.feature not in dataset.feature_names:
        raise VoicePDError(
            f"unknown feature {args.feature!r}; valid names: {', '.join(FEATURE_NAMES)}"
        )
    j = dataset.feature_names.index(args.feature)
    with open_output(args.out) as fh:
        fh.write("class,recording,value\n")
        for i, (row, label) in enumerate(zip(dataset.features, dataset.labels)):
            fh.write(f"{int(label)},{i},{float(row[j])!r}\n")
    print(f"wrote per-class series for {args.feature} to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="voicepd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract the 19-feature table from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, _EXTRACT_FIELDS)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("rank", help="chi-square rank the features of a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ["bins"])
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="holdout + k-fold CV report for one algorithm")
    p.add_argument("--features", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--out", default=None)
    _add_config_flags(p, _EVAL_FIELDS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic WAV plus ground-truth JSON")
    p.add_argument("--kind", required=True,
                   choices=["pulse", "pulse_train", "sine", "noise", "white_noise", "silence"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--f0", type=float, default=100.0)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--sample-rate", type=int, default=48000)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--shimmer", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plotdata", help="emit long-format per-class values of one feature")
    p.add_argument("--features", required=True)
    p.add_argument("--feature", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VoicePDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
