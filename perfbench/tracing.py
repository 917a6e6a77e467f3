"""Spans around calls into the voicepd layers, recorded from outside the program.

`Tracer.installed()` swaps each function in `TRACED` for a wrapper that
records a span (name, parent, start, end, exception class) and restores
the originals on exit.  A function is replaced under every name any
voicepd module holds it by, so spans do not depend on import style.
Spans stay in memory; `summarize` turns one pass's spans into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

from workloads import ALGORITHMS


def _algorithm_arg(args, kwargs):
    return kwargs.get("algorithm", args[0] if args else "unknown")


# (module, attribute, span name or name(args, kwargs), note(args, result) or None):
# the entry points each layer offers the layers above it.
TRACED = [
    ("voicepd.audio_io", "load_manifest", "audio_io.load_manifest", None),
    ("voicepd.audio_io", "load_wav", "audio_io.load_wav",
     lambda args, r: {"path": args[0], "samples": len(r.samples)}),
    ("voicepd.pitch", "analyze_pitch", "pitch.analyze_pitch", None),
    ("voicepd.pitch", "track_pitch", "pitch.track_pitch",
     lambda args, r: {"frames": len(r), "voiced": sum(1 for e in r if e.voiced)}),
    ("voicepd.pitch", "segment_cycles", "pitch.segment_cycles",
     lambda args, r: {"cycles": len(r)}),
    ("voicepd.features", "extract_all", "features.extract_all", None),
    ("voicepd.features", "power_spectrum", "features.power_spectrum", None),
    ("voicepd.data", "save_feature_csv", "data.save_feature_csv", None),
    ("voicepd.data", "load_feature_csv", "data.load_feature_csv", None),
    ("voicepd.selection", "chi2_scores", "selection.chi2_scores", None),
    ("voicepd.classifiers", "train",
     lambda args, kwargs: f"classifiers.{_algorithm_arg(args, kwargs)}.fit", None),
    ("voicepd.classifiers", "TrainedModel.predict",
     lambda args, kwargs: f"classifiers.{args[0].algorithm}.predict", None),
    ("voicepd.evaluation", "run_experiment", "evaluation.run_experiment", None),
    ("voicepd.evaluation", "cross_validate", "evaluation.cross_validate", None),
    ("voicepd.evaluation", "stratified_split", "evaluation.stratified_split", None),
    ("voicepd.evaluation", "kfold", "evaluation.kfold", None),
    ("voicepd.evaluation", "evaluate", "evaluation.evaluate", None),
    ("voicepd.evaluation", "metrics", "evaluation.metrics", None),
]

# the spans that together make up the handling of one recording by `extract`
_RECORDING_STEPS = ("audio_io.load_wav", "pitch.analyze_pitch", "features.extract_all")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    note: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=len(self.spans), name=name, parent=parent, start=0.0)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name(args, kwargs) if callable(name) else name) as s:
                result = fn(*args, **kwargs)
                if note is not None:
                    s.note = note(args, result)
                return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, note in TRACED:
                module = sys.modules[module_name]
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, fn_name)
                wrapper = self._wrap(original, name, note)
                if owner_name:
                    owners = [owner]
                else:
                    owners = [m for key, m in list(sys.modules.items())
                              if key.split(".")[0] == "voicepd"
                              and getattr(m, fn_name, None) is original]
                for o in owners:
                    setattr(o, fn_name, wrapper)
                    undo.append((o, fn_name, original))
            yield self
        finally:
            for o, fn_name, original in reversed(undo):
                setattr(o, fn_name, original)


def recordings(spans: list[Span]) -> list[tuple[str, float, str | None]]:
    """(manifest path, seconds, exception class or None) per recording extracted."""
    out = []
    commands = {s.id for s in spans if s.name == "cli.extract"}
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent not in commands or s.name not in _RECORDING_STEPS:
            continue
        if s.name == "audio_io.load_wav":
            out.append([s.note.get("path", "?"), 0.0, None])
        if out:
            out[-1][1] += s.seconds
            out[-1][2] = out[-1][2] or s.error
    return [tuple(r) for r in out]


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass: inclusive time, calls and work counts."""
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds

    def named(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.seconds for n in names for s in named(n))

    def self_time(spans_):
        return sum(s.seconds - child_seconds.get(s.id, 0.0) for s in spans_)

    def noted(name, key):
        return sum(s.note.get(key, 0) for s in named(name))

    frames = noted("pitch.track_pitch", "frames")
    m = {
        "audio_io.load_wav_s": total("audio_io.load_wav"),
        "audio_io.load_wav_calls": len(named("audio_io.load_wav")),
        "audio_io.samples_decoded": noted("audio_io.load_wav", "samples"),
        "pitch.track_pitch_s": total("pitch.track_pitch"),
        "pitch.frames": frames,
        "pitch.voiced_ratio": noted("pitch.track_pitch", "voiced") / frames if frames else 0.0,
        "pitch.segment_cycles_s": total("pitch.segment_cycles"),
        "pitch.cycles": noted("pitch.segment_cycles", "cycles"),
        "features.extract_all_s": total("features.extract_all"),
        "features.power_spectrum_calls": len(named("features.power_spectrum")),
        "features.power_spectrum_s": total("features.power_spectrum"),
        "features.rejected": sum(1 for s in named("features.extract_all") if s.error),
        "data.save_feature_csv_s": total("data.save_feature_csv"),
        "data.load_feature_csv_s": total("data.load_feature_csv"),
        "selection.chi2_scores_s": total("selection.chi2_scores"),
        "selection.chi2_scores_calls": len(named("selection.chi2_scores")),
        "evaluation.split_s": total("evaluation.stratified_split", "evaluation.kfold"),
        "evaluation.score_s": self_time(named("evaluation.evaluate")) + total("evaluation.metrics"),
        "cli.self_s": self_time([s for s in spans if s.name.startswith("cli.")]),
    }
    for algorithm in ALGORITHMS:
        m[f"classifiers.{algorithm}.fit_s"] = total(f"classifiers.{algorithm}.fit")
        m[f"classifiers.{algorithm}.predict_s"] = total(f"classifiers.{algorithm}.predict")
        m[f"classifiers.{algorithm}.fits"] = len(named(f"classifiers.{algorithm}.fit"))
    return m


def recording_metrics(per_recording_s: list[float]) -> dict[str, float]:
    """Median and 90th percentile per-recording time, with the sample count."""
    ms = [1000.0 * s for s in per_recording_s]
    if len(ms) < 2:
        p50 = p90 = ms[0] if ms else 0.0
    else:
        p50 = statistics.median(ms)
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {"extract.recording_ms_p50": p50, "extract.recording_ms_p90": p90,
            "extract.recordings": len(ms)}
