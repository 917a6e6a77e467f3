"""The benchmark's tracer wraps voicepd functions by name and reads their
return values (`perfbench/tracing.py`).  These tests run `extract` and
`evaluate` under it, so a renamed entry point or a changed return shape
fails here and not only in the benchmark."""

import contextlib
import io
from pathlib import Path

import pytest

from voicepd.cli import main
from voicepd.data import save_feature_csv
from voicepd.synth import gen_blobs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def traced_run(tracing, argv):
    """(exit code, per-layer metrics) of one in-process command under the tracer."""
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, tracing.summarize(tracer.spans)


def test_extract_metrics(tracing, tmp_path):
    lines = []
    for i, f0 in enumerate((100, 120, 140)):
        assert main(["synth", "--kind", "pulse", "--out-dir", str(tmp_path), "--f0", str(f0),
                     "--duration", "0.5", "--sample-rate", "16000", "--jitter", "1.0",
                     "--seed", str(i), "--name", f"p{i}"]) == 0
        lines.append(f"{tmp_path / f'p{i}.wav'},{i}")
    (tmp_path / "broken.wav").write_bytes(b"not a wav")  # rejected before extract_all
    lines.append(f"{tmp_path / 'broken.wav'},0")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "features.csv"
    code, m = traced_run(tracing, ["extract", "--manifest", manifest, "--out", out])
    assert code == 0
    accepted = len(out.read_text().splitlines()) - 1
    assert accepted == 3
    assert m["pitch.frames"] > 0
    assert m["pitch.cycles"] > 0
    assert 0 < m["pitch.voiced_ratio"] <= 1
    assert m["audio_io.samples_decoded"] == 3 * 8000
    assert m["features.power_spectrum_calls"] == accepted


def test_evaluate_metrics(tracing, tmp_path):
    table = tmp_path / "blobs.csv"
    save_feature_csv(str(table), gen_blobs(10, seed=0))
    code, m = traced_run(tracing, ["evaluate", "--features", table, "--algorithm", "knn",
                                   "--cv-k", 3, "--out", tmp_path / "report.json"])
    assert code == 0
    assert m["data.load_feature_csv_s"] > 0
    assert m["classifiers.knn.predict_s"] > 0
