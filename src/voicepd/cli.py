"""Command-line surface: synth, extract, rank, evaluate, plotdata.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
All commands are deterministic given (inputs, config, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import audio_io, evaluation
from .classifiers import ALGORITHMS
from .data import LabeledDataset, load_feature_csv, open_output, save_feature_csv
from .errors import ConfigError, DataError, VoicePDError
from .features import DEFAULT_SURE_THRESHOLD, FEATURE_NAMES, extract_all
from .pitch import PitchConfig, analyze_pitch
from .selection import DEFAULT_BINS, chi2_scores
from .synth import KINDS, SynthSpec, gen_signal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_KIND_ALIASES = {"pulse": "pulse_train", "noise": "white_noise"}


def _tunable(default, kind: type, *, gt=None, ge=None, lt=None, le=None, model=None):
    """A RunConfig field declared with its kind (int or float), its range (gt or ge,
    lt or le; unbounded where unset) and the (algorithm, constructor argument) it sets."""
    algorithm, argument = model or (None, None)
    return dataclasses.field(default=default, metadata={
        "kind": kind, "low": (ge, "[") if gt is None else (gt, "("),
        "high": (le, "]") if lt is None else (lt, ")"),
        "algorithm": algorithm, "argument": argument})


def _range_text(f: dataclasses.Field) -> str:
    """A field's range as errors and --help give it: '>= 1', '> 0' or 'in (0, 1)'."""
    (low, left), (high, right) = f.metadata["low"], f.metadata["high"]
    if high is not None:
        return f"in {left}{low}, {high}{right}"
    return "" if low is None else f"{'>=' if left == '[' else '>'} {low}"


@dataclass
class RunConfig:
    """Every tunable of the pipeline, read from a JSON file and flags.

    A model hyperparameter left at None takes its constructor's default.
    """

    seed: int = _tunable(0, int, ge=0)
    frame_ms: float = _tunable(PitchConfig.frame_ms, float, gt=0)
    hop_ms: float = _tunable(PitchConfig.hop_ms, float, gt=0)
    f0_min: float = _tunable(PitchConfig.f0_min, float, gt=0)
    f0_max: float = _tunable(PitchConfig.f0_max, float)
    voicing_threshold: float = _tunable(PitchConfig.voicing_threshold, float, ge=0, le=1)
    sure_threshold: float = _tunable(DEFAULT_SURE_THRESHOLD, float, gt=0)
    # chi2_scores allocates a (bins, classes) table and one bincount per feature
    bins: int = _tunable(DEFAULT_BINS, int, ge=2, le=1 << 16)
    top_k: int | None = _tunable(None, int, ge=1)
    test_fraction: float = _tunable(evaluation.DEFAULT_TEST_FRACTION, float, gt=0, lt=1)
    cv_k: int = _tunable(evaluation.DEFAULT_CV_K, int, ge=2)
    knn_k: int | None = _tunable(None, int, ge=1, model=("knn", "k"))
    tree_max_depth: int | None = _tunable(None, int, ge=1, model=("tree", "max_depth"))
    tree_min_leaf: int | None = _tunable(None, int, ge=1, model=("tree", "min_leaf"))
    nb_var_floor: float | None = _tunable(None, float, gt=0, model=("nb", "var_floor"))
    svm_lambda: float | None = _tunable(None, float, gt=0, model=("svm", "lam"))
    svm_epochs: int | None = _tunable(None, int, ge=1, model=("svm", "epochs"))
    nn_hidden: int | None = _tunable(None, int, ge=1, model=("nn", "hidden"))
    nn_lr: float | None = _tunable(None, float, gt=0, model=("nn", "lr"))
    nn_epochs: int | None = _tunable(None, int, ge=1, model=("nn", "epochs"))
    nn_batch: int | None = _tunable(None, int, ge=1, model=("nn", "batch_size"))

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
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ConfigError on a value of the wrong type, not finite or out of its
        declared range, or on f0_min >= f0_max; float fields then hold floats."""
        for f in dataclasses.fields(self):
            value, kind = getattr(self, f.name), f.metadata["kind"]
            if value is None and f.default is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise ConfigError(f"config {f.name} must be {f.type}, got {value!r}")
            # false for nan, inf and a JSON integer beyond float64
            if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
                raise ConfigError(f"config {f.name} must be finite, got {value!r}")
            (low, left), (high, right) = f.metadata["low"], f.metadata["high"]
            if (low is not None and (value < low or value == low and left == "(")
                    or high is not None and (value > high or value == high and right == ")")):
                raise ConfigError(f"config {f.name} must be {_range_text(f)}, got {value}")
            setattr(self, f.name, kind(value))
        if self.f0_min >= self.f0_max:
            raise ConfigError(f"config f0_min must be < f0_max, got {self.f0_min} >= {self.f0_max}")

    def pitch_config(self) -> PitchConfig:
        names = (f.name for f in dataclasses.fields(PitchConfig))
        return PitchConfig(**{name: getattr(self, name) for name in names})

    def hyperparams(self, algorithm: str) -> dict:
        """Constructor arguments of `algorithm`'s model from the fields that are set."""
        return {f.metadata["argument"]: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.metadata["algorithm"] == algorithm and getattr(self, f.name) is not None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(p: argparse.ArgumentParser, names: list[str]) -> None:
    p.add_argument("--config", help="JSON config file providing defaults")
    for f in (f for f in dataclasses.fields(RunConfig) if f.name in names):
        default = ("the model's own" if f.metadata["algorithm"]
                   else "every feature" if f.default is None else f.default)
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                       type=f.metadata["kind"],
                       help=f"{f.metadata['kind'].__name__} {_range_text(f)} (default: {default})")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The --config file, or the defaults, overridden by each RunConfig flag given."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for f in dataclasses.fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _check_outputs(*paths: str) -> None:
    """Open each output path for appending, so a command finds an unwritable one
    before it truncates any or starts its work.  A file the check creates is
    removed again at once, so every path is left as it was found."""
    for path in paths:
        new = not os.path.lexists(path)
        open_output(path, "a").close()
        if new:
            os.remove(path)


_EXTRACT_FIELDS = [*(f.name for f in dataclasses.fields(PitchConfig)), "sure_threshold"]
_EVAL_FIELDS = ["seed", "bins", "top_k", "test_fraction", "cv_k",
                *(f.name for f in dataclasses.fields(RunConfig) if f.metadata["algorithm"])]


def cmd_extract(args) -> int:
    cfg = _merge_config(args)
    pitch = cfg.pitch_config()
    entries = audio_io.load_manifest(args.manifest)
    sidecar = args.out + ".rejects.csv"
    # check both outputs before the first recording is decoded, so an --out
    # that cannot be written fails at once
    _check_outputs(args.out, sidecar)
    rows, labels, rejects = [], [], []
    for entry in entries:
        try:
            signal = audio_io.load_wav(entry.path)
            track = analyze_pitch(signal, pitch)
            row = extract_all(signal, track, pitch, cfg.sure_threshold)
        except VoicePDError as exc:
            rejects.append((entry.path, str(exc)))
            continue
        rows.append(row)
        labels.append(entry.label)
    features = np.array(rows).reshape(-1, len(FEATURE_NAMES))
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
    cfg = _merge_config(args)
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
    cfg = _merge_config(args)
    if args.out:
        _check_outputs(args.out)
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
    _check_outputs(json_path, wav_path)
    audio_io.save_wav(signal, wav_path)
    with open_output(json_path) as fh:
        fh.write(json.dumps(dataclasses.asdict(truth), sort_keys=True) + "\n")
    print(f"wrote {wav_path} and {json_path}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    dataset = load_feature_csv(args.features)
    if args.feature not in dataset.feature_names:
        raise DataError(f"unknown feature {args.feature!r}; the columns of "
                        f"{args.features!r} are: {', '.join(dataset.feature_names)}")
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

    p = sub.add_parser("extract", help="extract the 19-feature table from a manifest",
                       epilog="--f0-min must be below --f0-max")
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
    p.add_argument("--kind", required=True, choices=[*KINDS, *_KIND_ALIASES])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--f0", type=float, default=SynthSpec.f0)
    p.add_argument("--duration", type=float, default=SynthSpec.duration_s)
    p.add_argument("--sample-rate", type=int, default=SynthSpec.sample_rate)
    p.add_argument("--jitter", type=float, default=SynthSpec.jitter_pct)
    p.add_argument("--shimmer", type=float, default=SynthSpec.shimmer_db)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
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
