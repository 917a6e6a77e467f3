import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import voicepd
from voicepd.classifiers import ALGORITHMS, REGISTRY
from voicepd.cli import RunConfig, build_parser, main
from voicepd.features import FEATURE_NAMES

EXPECTED_HEADER = ",".join(FEATURE_NAMES) + ",label"


def run(*args):
    return main([str(a) for a in args])


def synth_dataset(out_dir, per_class=2, duration=1.0):
    """Pulse-train WAVs in three jitter classes plus a manifest file."""
    jitter_by_class = {0: 3.0, 1: 0.0, 2: 1.0}
    lines = []
    for label, jit in jitter_by_class.items():
        for i in range(per_class):
            name = f"c{label}_{i}"
            assert run("synth", "--kind", "pulse", "--out-dir", out_dir,
                       "--f0", 100, "--duration", duration, "--sample-rate", 16000,
                       "--jitter", jit, "--seed", 100 * label + i, "--name", name) == 0
            lines.append(f"{os.path.join(out_dir, name + '.wav')},{label}")
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


class TestSynthCommand:
    def test_writes_wav_and_truth(self, tmp_path):
        assert run("synth", "--kind", "pulse", "--out-dir", tmp_path,
                   "--jitter", 1.0, "--name", "x") == 0
        assert (tmp_path / "x.wav").exists()
        truth = json.loads((tmp_path / "x.json").read_text())
        assert truth["spec"]["jitter_pct"] == 1.0
        assert len(truth["cycle_periods_s"]) > 50

    def test_invalid_f0_nonzero_exit(self, tmp_path, capsys):
        code = run("synth", "--kind", "sine", "--out-dir", tmp_path,
                   "--f0", 30000, "--sample-rate", 8000)
        assert code == 2
        assert "Nyquist" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        assert run("synth", "--kind", "triangle", "--out-dir", "/tmp/x") == 1

    def test_flag_defaults_are_spec_defaults(self, tmp_path, monkeypatch):
        from voicepd import cli
        from voicepd.synth import SynthSpec
        specs, gen_signal = [], cli.gen_signal

        def spy(spec):
            specs.append(spec)
            return gen_signal(spec)

        monkeypatch.setattr(cli, "gen_signal", spy)
        assert run("synth", "--kind", "pulse_train", "--out-dir", tmp_path, "--name", "x") == 0
        assert specs == [SynthSpec()]

    @pytest.mark.parametrize("flags,message", [
        (["--f0", -5], "f0 must be positive"),
        (["--f0", 0], "f0 must be positive"),
        (["--f0", "nan"], "f0 must be finite"),
        (["--kind", "noise", "--f0", "inf"], "f0 must be finite"),
        (["--duration", "nan"], "duration_s must be finite"),
        (["--shimmer", "inf"], "shimmer_db must be finite"),
        (["--jitter", "1e308"], "shorter than one sample"),
        (["--jitter", 70], "shorter than one sample"),
        (["--seed", -1], "seed must be non-negative"),
        (["--duration", "1e-9"], "gives 8e-06 samples"),
        (["--duration", "1e308"], "gives inf samples"),
    ])
    def test_invalid_spec_exit_2(self, tmp_path, capsys, flags, message):
        assert run("synth", "--kind", "pulse", "--out-dir", tmp_path, "--duration", 0.1,
                   "--sample-rate", 8000, "--name", "x", *flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.wav").exists()


class TestExtractCommand:
    def test_end_to_end(self, tmp_path):
        manifest = synth_dataset(str(tmp_path))
        out = tmp_path / "features.csv"
        assert run("extract", "--manifest", manifest, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 7  # header + 6 recordings
        assert (tmp_path / "features.csv.rejects.csv").read_text() == "path,reason\n"

    def test_jitter_recovered_through_cli(self, tmp_path):
        manifest = synth_dataset(str(tmp_path), per_class=1, duration=2.0)
        out = tmp_path / "features.csv"
        assert run("extract", "--manifest", manifest, "--out", out) == 0
        lines = out.read_text().splitlines()[1:]
        j_col = FEATURE_NAMES.index("jitter_pct")
        by_label = {int(l.split(",")[-1]): float(l.split(",")[j_col]) for l in lines}
        assert by_label[1] == pytest.approx(0.0, abs=0.2)  # class 1 has no jitter
        assert by_label[2] == pytest.approx(1.0, abs=0.3)
        assert by_label[0] == pytest.approx(3.0, abs=0.4)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("")
        out = tmp_path / "f.csv"
        assert run("extract", "--manifest", manifest, "--out", out) == 2
        assert out.read_text().splitlines() == [EXPECTED_HEADER]

    def test_silence_goes_to_sidecar(self, tmp_path, capsys):
        assert run("synth", "--kind", "silence", "--out-dir", tmp_path, "--name", "quiet") == 0
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{tmp_path}/quiet.wav,0\n")
        out = tmp_path / "f.csv"
        # no accepted recording is a data error, but both files are still written
        assert run("extract", "--manifest", manifest, "--out", out) == 2
        assert "no recording was accepted (1 rejected" in capsys.readouterr().err
        assert out.read_text().splitlines() == [EXPECTED_HEADER]
        rejects = (tmp_path / "f.csv.rejects.csv").read_text().splitlines()
        assert len(rejects) == 2 and "quiet.wav" in rejects[1]

    def test_corrupt_chunk_size_goes_to_sidecar(self, tmp_path):
        # a `fmt ` chunk size that runs past the end of the file makes
        # Python 3.11's `wave` raise a bare RuntimeError
        for name in ("good", "bad"):
            assert run("synth", "--kind", "pulse", "--out-dir", tmp_path, "--duration", 0.5,
                       "--sample-rate", 16000, "--name", name) == 0
        bad = tmp_path / "bad.wav"
        data = bytearray(bad.read_bytes())
        data[16:20] = bytes([0x10, 0x00, 0x67, 0x00])
        bad.write_bytes(bytes(data))
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{bad},0\n{tmp_path / 'good.wav'},1\n")
        out = tmp_path / "f.csv"
        assert run("extract", "--manifest", manifest, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 2
        rejects = (tmp_path / "f.csv.rejects.csv").read_text().splitlines()
        assert len(rejects) == 2 and rejects[1].startswith(f"{bad},")

    def test_missing_manifest_exit_2(self, tmp_path):
        assert run("extract", "--manifest", tmp_path / "none.csv", "--out", tmp_path / "f.csv") == 2

    def test_recording_shorter_than_a_frame_is_named(self, tmp_path):
        # 30 ms at 16 kHz is 480 samples, less than one 40-ms frame: the reason
        # is the short recording, not the first pitch feature that fails
        for name, duration in (("short", 0.03), ("long", 0.5)):
            assert run("synth", "--kind", "pulse", "--out-dir", tmp_path, "--duration",
                       duration, "--sample-rate", 16000, "--name", name) == 0
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{tmp_path / 'short.wav'},0\n{tmp_path / 'long.wav'},1\n")
        out = tmp_path / "f.csv"
        assert run("extract", "--manifest", manifest, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 2
        rejects = (tmp_path / "f.csv.rejects.csv").read_text().splitlines()
        assert rejects[1:] == [f'{tmp_path / "short.wav"},"recording of 480 samples is shorter '
                               f'than one 640-sample analysis frame"']


class TestRankCommand:
    def test_label_copy_ranks_first(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1, 2], 15)
        path = tmp_path / "f.csv"
        with open(path, "w") as fh:
            fh.write("noise_a,copied,noise_b,constant,label\n")
            for lb in labels:
                fh.write(f"{rng.standard_normal()!r},{float(lb)!r},"
                         f"{rng.standard_normal()!r},1.0,{lb}\n")
        out = tmp_path / "ranked.csv"
        assert run("rank", "--features", path, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,feature,chi2"
        assert lines[1].split(",")[1] == "copied"
        constant_row = next(l for l in lines if l.split(",")[1] == "constant")
        assert float(constant_row.split(",")[2]) == 0.0
        assert constant_row.split(",")[0] == "4"

    def test_bins_ceiling_checked_before_the_table_is_read(self, tmp_path, capsys):
        assert run("rank", "--features", tmp_path / "missing.csv", "--out",
                   tmp_path / "ranked.csv", "--bins", 10 ** 15) == 2
        assert capsys.readouterr().err == (
            "error: config bins must be in [2, 65536], got 1000000000000000\n")


class TestEvaluateCommand:
    def _blob_csv(self, tmp_path):
        from voicepd.data import save_feature_csv
        from voicepd.synth import gen_blobs
        path = tmp_path / "blobs.csv"
        save_feature_csv(str(path), gen_blobs((22, 28, 30), seed=5))
        return path

    def test_report_contents(self, tmp_path):
        path = self._blob_csv(tmp_path)
        out = tmp_path / "report.json"
        assert run("evaluate", "--features", path, "--algorithm", "nb",
                   "--out", out, "--seed", 3) == 0
        report = json.loads(out.read_text())
        assert report["cv"]["pooled"]["accuracy"] >= 0.95
        assert set(report["holdout"]["per_class"]) == {
            "0 (Med Off)", "1 (Healthy)", "2 (Med On)"}

    def test_header_only_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(EXPECTED_HEADER + "\n")
        assert run("evaluate", "--features", path, "--algorithm", "knn") == 2
        assert "no rows" in capsys.readouterr().err

    def test_nn_divergence_exit_2(self, tmp_path, capsys):
        from voicepd.data import save_feature_csv
        from voicepd.synth import gen_blobs
        path = tmp_path / "blobs.csv"
        save_feature_csv(str(path), gen_blobs(10, seed=0))
        out = tmp_path / "report.json"
        # outside pytest a numpy RuntimeWarning prints to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("evaluate", "--features", path, "--algorithm", "nn", "--cv-k", 3,
                       "--nn-lr", "1e308", "--nn-epochs", 2, "--out", out) == 2
        err = capsys.readouterr().err
        assert "nn training diverged on fit" in err
        assert [str(w.message) for w in caught] == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_same_seed_identical_json(self, tmp_path):
        path = self._blob_csv(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("evaluate", "--features", path, "--algorithm", "knn",
                   "--out", a, "--seed", 5) == 0
        assert run("evaluate", "--features", path, "--algorithm", "knn",
                   "--out", b, "--seed", 5) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", [*ALGORITHMS, "rank"])
def test_overflowing_column_exit_2(tmp_path, capsys, command):
    """Every value is finite, but the column's sum, spread and std overflow."""
    from voicepd.data import save_feature_csv
    from voicepd.synth import gen_blobs
    ds = gen_blobs(10, seed=0)
    ds.features[:, 0] = np.where(np.arange(len(ds)) % 2 == 0, 1.5e308, -1.5e308)
    path = tmp_path / "huge.csv"
    save_feature_csv(str(path), ds)
    out = tmp_path / "out"
    if command == "rank":
        argv = ["rank", "--features", path, "--out", out]
    else:
        argv = ["evaluate", "--features", path, "--algorithm", command, "--cv-k", 3,
                "--out", out]
    # outside pytest a numpy RuntimeWarning prints to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv) == 2
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert err.startswith("error: ") and err.count("\n") == 1
    if command == "rank":
        assert "'maximum'" in err
    else:
        assert "too large to standardize" in err
    assert not out.exists()


def test_nb_subnormal_var_floor_exit_0(tmp_path):
    """A feature constant within a class keeps only the subnormal variance
    floor, so a row off that constant has log-likelihood -inf for the class,
    reached without a numpy warning."""
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1, 2], 12)
    a = rng.standard_normal(36) + labels
    b = np.where(labels == 0, 5.0, rng.standard_normal(36) + labels)
    path = tmp_path / "const.csv"
    path.write_text("a,b,label\n" + "".join(f"{x!r},{v!r},{c}\n"
                                           for x, v, c in zip(a.tolist(), b.tolist(), labels)))
    out = tmp_path / "report.json"
    # outside pytest a numpy RuntimeWarning prints to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("evaluate", "--features", path, "--algorithm", "nb", "--cv-k", 3,
                   "--nb-var-floor", "1e-320", "--out", out) == 0
    assert [str(w.message) for w in caught] == []
    assert json.loads(out.read_text())["model"] == "nb"


class TestPlotdataCommand:
    def test_groups_and_conservation(self, tmp_path):
        from voicepd.data import save_feature_csv
        from voicepd.synth import gen_blobs
        path = tmp_path / "f.csv"
        save_feature_csv(str(path), gen_blobs(4, seed=0))
        out = tmp_path / "plot.csv"
        assert run("plotdata", "--features", path, "--feature", "kurtosis",
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "class,recording,value"
        assert len(lines) == 13  # header + 12 rows, one per input row
        assert {l.split(",")[0] for l in lines[1:]} == {"0", "1", "2"}

    def test_unknown_feature_lists_names(self, tmp_path, capsys):
        from voicepd.data import save_feature_csv
        from voicepd.synth import gen_blobs
        path = tmp_path / "f.csv"
        save_feature_csv(str(path), gen_blobs(2, seed=0))
        assert run("plotdata", "--features", path, "--feature", "sparkle",
                   "--out", tmp_path / "o.csv") == 2
        err = capsys.readouterr().err
        assert "sparkle" in err and "kurtosis" in err


def _spaced_header_table(tmp_path):
    """A feature CSV whose header has spaces around a name, as values and labels may."""
    path = tmp_path / "spaced.csv"
    path.write_text("a, b ,label\n1.0,2.0,0\n3.0,4.0,1\n1.5,9.0,2\n")
    return path


def test_rank_strips_the_header_names(tmp_path):
    out = tmp_path / "r.csv"
    assert run("rank", "--features", _spaced_header_table(tmp_path), "--out", out) == 0
    names = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert sorted(names) == ["a", "b"]


def test_plotdata_finds_a_feature_whose_header_name_has_spaces(tmp_path):
    out = tmp_path / "p.csv"
    assert run("plotdata", "--features", _spaced_header_table(tmp_path), "--feature", "b",
               "--out", out) == 0
    assert out.read_text().splitlines()[1:] == ["0,0,2.0", "1,1,4.0", "2,2,9.0"]


class TestRunConfig:
    def test_roundtrip_through_file(self, tmp_path):
        cfg = RunConfig(seed=9, bins=7, top_k=4, nn_hidden=32, f0_min=70.0)
        path = tmp_path / "cfg.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(cfg), fh)
        assert RunConfig.from_file(str(path)) == cfg

    def test_cli_honors_config_file(self, tmp_path):
        from voicepd.data import save_feature_csv
        from voicepd.synth import gen_blobs
        features = tmp_path / "f.csv"
        save_feature_csv(str(features), gen_blobs((22, 28, 30), seed=5))
        cfg = RunConfig(seed=11, cv_k=5)
        cfg_path = tmp_path / "cfg.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(cfg), fh)
        out = tmp_path / "r.json"
        assert run("evaluate", "--features", features, "--algorithm", "nb",
                   "--config", cfg_path, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 11
        assert len(report["cv"]["folds"]) == 5

    def test_flag_overrides_config(self, tmp_path):
        from voicepd.data import save_feature_csv
        from voicepd.synth import gen_blobs
        features = tmp_path / "f.csv"
        save_feature_csv(str(features), gen_blobs((22, 28, 30), seed=5))
        cfg_path = tmp_path / "cfg.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(RunConfig(seed=11)), fh)
        out = tmp_path / "r.json"
        assert run("evaluate", "--features", features, "--algorithm", "nb",
                   "--config", cfg_path, "--seed", 99, "--out", out) == 0
        assert json.loads(out.read_text())["seed"] == 99


    @pytest.mark.parametrize("config,flags,message", [
        ({"cv_k": "10"}, [], "cv_k must be int"),
        ({}, ["--nn-batch", 0], "nn_batch must be >= 1"),
        ({"knn_k": 0}, [], "knn_k must be >= 1"),
        ({"bins": 1}, [], "config bins must be in [2, 65536], got 1"),
        ({"test_fraction": 1.0}, [], "test_fraction must be in (0, 1)"),
        ({"svm_lambda": True}, [], "svm_lambda must be float"),
        ({}, ["--cv-k", 1], "cv_k must be >= 2"),
        ({}, ["--nn-lr", "nan"], "nn_lr must be finite"),
        ({}, ["--svm-epochs", -2], "svm_epochs must be >= 1"),
        ({}, ["--nn-epochs", 0], "nn_epochs must be >= 1"),
        ({}, ["--tree-max-depth", 0], "tree_max_depth must be >= 1"),
        ({}, ["--svm-lambda", 0], "svm_lambda must be > 0"),
        ({}, ["--nb-var-floor", 0], "nb_var_floor must be > 0"),
        ({"nn_lr": float("inf")}, [], "nn_lr must be finite"),
        ({"hop_ms": 0}, [], "hop_ms must be > 0"),
        ({"voicing_threshold": 1.5}, [], "voicing_threshold must be in [0, 1]"),
        ({}, ["--seed", -1], "seed must be >= 0"),
        ({"seed": -1}, [], "seed must be >= 0"),
        ({"algorithm": "knn"}, [], "unknown config keys: ['algorithm']"),
        # valid values the trainers cannot use: a later --algorithm overrides nn
        ({}, ["--algorithm", "svm", "--cv-k", 3, "--svm-lambda", "1e308"],
         "svm_lambda 1e+308 is too large"),
        ({}, ["--algorithm", "nb", "--cv-k", 3, "--nb-var-floor", "1e308"],
         "lower nb_var_floor"),
        ({}, ["--test-fraction", 0.01, "--cv-k", 3],
         "test_fraction 0.01 of 30 rows leaves an empty holdout set"),
        ({}, ["--test-fraction", 0.99, "--cv-k", 3],
         "test_fraction 0.99 of 30 rows leaves an empty training set"),
        ({}, ["--top-k", 0], "config top_k must be >= 1, got 0"),
        ({}, ["--bins", 10 ** 15], "config bins must be in [2, 65536], got 1000000000000000"),
        # JSON integers beyond float64 in float fields
        ({"frame_ms": 10 ** 400}, [], "config frame_ms must be finite, got 1000"),
        ({"hop_ms": 10 ** 400}, [], "config hop_ms must be finite, got 1000"),
        ({"sure_threshold": 10 ** 400}, [], "config sure_threshold must be finite, got 1000"),
        ({"f0_max": 10 ** 400}, [], "config f0_max must be finite, got 1000"),
        ({"nn_lr": 10 ** 400}, [], "config nn_lr must be finite, got 1000"),
        ({"svm_lambda": 10 ** 400}, [], "config svm_lambda must be finite, got 1000"),
        ({"nb_var_floor": -10 ** 400}, [], "config nb_var_floor must be finite, got -1000"),
    ])
    def test_invalid_values_exit_2(self, tmp_path, capsys, config, flags, message):
        from voicepd.data import save_feature_csv
        from voicepd.synth import gen_blobs
        features = tmp_path / "f.csv"
        save_feature_csv(str(features), gen_blobs(10, seed=0))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        # outside pytest a numpy RuntimeWarning prints to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("evaluate", "--features", features, "--algorithm", "nn",
                       "--config", cfg_path, *flags) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("flags,message", [
        (["--hop-ms", 0], "hop_ms must be > 0"),
        (["--frame-ms", -40], "frame_ms must be > 0"),
        (["--sure-threshold", 0], "sure_threshold must be > 0"),
        (["--f0-min", "nan"], "f0_min must be finite"),
        (["--f0-max", "inf"], "f0_max must be finite"),
        (["--f0-min", 0], "f0_min must be > 0"),
        (["--f0-min", 500, "--f0-max", 60], "f0_min must be < f0_max"),
        (["--voicing-threshold", -0.1], "voicing_threshold must be in [0, 1]"),
        # a dict stands for a --config file holding it: JSON integers beyond float64
        ([{"frame_ms": 10 ** 400}], "config frame_ms must be finite, got 1000"),
        ([{"hop_ms": 10 ** 400}], "config hop_ms must be finite, got 1000"),
        ([{"sure_threshold": 10 ** 400}], "config sure_threshold must be finite, got 1000"),
        ([{"f0_max": 10 ** 400}], "config f0_max must be finite, got 1000"),
        ([{"f0_min": -10 ** 400}], "config f0_min must be finite, got -1000"),
    ])
    def test_invalid_extract_flags_exit_2(self, tmp_path, capsys, flags, message):
        assert run("synth", "--kind", "pulse", "--out-dir", tmp_path, "--duration", 0.5,
                   "--sample-rate", 16000, "--name", "a") == 0
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{tmp_path / 'a.wav'},1\n")
        out = tmp_path / "f.csv"
        cfg_path = tmp_path / "cfg.json"
        for i, flag in enumerate(flags):
            if isinstance(flag, dict):
                cfg_path.write_text(json.dumps(flag))
                flags = [*flags[:i], "--config", cfg_path, *flags[i + 1:]]
        assert run("extract", "--manifest", manifest, "--out", out, *flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,reason", [
        (["--frame-ms", "1e308"], "frame_ms 1e+308 gives inf samples at 16000 Hz"),
        (["--hop-ms", "1e308"], "hop_ms 1e+308 gives inf samples at 16000 Hz"),
        (["--frame-ms", "1e300"], "more than an array can hold"),
        (["--f0-min", "1e-320"], "lag range up to inf exceeds frame length 640"),
        (["--frame-ms", "1e10"],
         "recording of 8000 samples is shorter than one 160000000000-sample analysis frame"),
    ])
    def test_unusable_extract_flags_reject_each_recording(self, tmp_path, capsys, flags, reason):
        # valid config values that give no usable frame or lag: each recording
        # is rejected with the reason, not an overflow
        assert run("synth", "--kind", "pulse", "--out-dir", tmp_path, "--duration", 0.5,
                   "--sample-rate", 16000, "--name", "a") == 0
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{tmp_path / 'a.wav'},1\n")
        out = tmp_path / "f.csv"
        capsys.readouterr()
        assert run("extract", "--manifest", manifest, "--out", out, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no recording was accepted (1 rejected")
        assert err.count("\n") == 1
        sidecar = (tmp_path / "f.csv.rejects.csv").read_text().splitlines()
        assert len(sidecar) == 2 and reason in sidecar[1]


_NONFINITE = {"features_nan_evaluate": ("nan", "evaluate"),
              "features_inf_rank": ("inf", "rank"),
              "features_neg_inf_evaluate": ("-inf", "evaluate"),
              "features_overflow_rank": ("1e999", "rank")}
_BAD_LABEL = {"manifest_label_7": ("extract", "7"),
              "features_label_7": ("evaluate", "7"),
              "features_label_1.0": ("evaluate", "1.0")}


def _bad_input_case(case, tmp_path):
    """(argv, path the message must name) for one unreadable or unwritable file."""
    from voicepd.data import save_feature_csv
    from voicepd.synth import gen_blobs
    features = tmp_path / "f.csv"
    save_feature_csv(str(features), gen_blobs(4, seed=0))
    missing = tmp_path / "no_such.csv"
    out_in_missing_dir = tmp_path / "no_such_dir" / "out.csv"
    evaluate = ["evaluate", "--algorithm", "nb", "--cv-k", 2]
    if case == "config_missing":
        bad = tmp_path / "no_such.json"
        return [*evaluate, "--features", features, "--config", bad], bad
    if case == "config_malformed":
        bad = tmp_path / "cfg.json"
        bad.write_text('{"seed": 1,')
        return [*evaluate, "--features", features, "--config", bad], bad
    if case == "manifest_not_utf8":
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(b"caf\xe9.wav,1\n")
        return ["extract", "--manifest", bad, "--out", tmp_path / "o.csv"], bad
    if case == "features_not_utf8":
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(features.read_bytes().replace(b"label", b"lab\xe9l"))
        return [*evaluate, "--features", bad], bad
    if case == "features_missing_evaluate":
        return [*evaluate, "--features", missing], missing
    if case == "features_missing_rank":
        return ["rank", "--features", missing, "--out", tmp_path / "r.csv"], missing
    if case == "features_missing_plotdata":
        return ["plotdata", "--features", missing, "--feature", "rms",
                "--out", tmp_path / "p.csv"], missing
    if case == "out_dir_missing_extract":
        assert run("synth", "--kind", "pulse", "--out-dir", tmp_path, "--duration", 0.5,
                   "--sample-rate", 16000, "--name", "a") == 0
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{tmp_path / 'a.wav'},1\n")
        return ["extract", "--manifest", manifest, "--out", out_in_missing_dir], out_in_missing_dir
    if case in _NONFINITE:
        # a cell that float() parses but no feature can hold, on line 5 of the
        # file once a blank line is inserted after the header
        value, command = _NONFINITE[case]
        bad = tmp_path / "nonfinite.csv"
        lines = features.read_text().splitlines()
        lines[3] = ",".join([lines[3].split(",")[0], value, *lines[3].split(",")[2:]])
        lines.insert(1, "")
        bad.write_text("\n".join(lines) + "\n")
        if command == "rank":
            return ["rank", "--features", bad, "--out", tmp_path / "r.csv"], bad
        return [*evaluate, "--features", bad], bad
    if case == "features_repeated_column_rank":
        bad = tmp_path / "repeated.csv"
        bad.write_text("a,a,label\n1.0,2.0,0\n3.0,4.0,1\n")
        return ["rank", "--features", bad, "--out", tmp_path / "r.csv"], bad
    if case == "features_repeated_spaced_column_rank":
        # the same name once the spaces around it are stripped
        bad = tmp_path / "repeated.csv"
        bad.write_text("a, a,label\n1.0,2.0,0\n3.0,4.0,1\n")
        return ["rank", "--features", bad, "--out", tmp_path / "r.csv"], bad
    if case == "features_unnamed_column_rank":
        bad = tmp_path / "unnamed.csv"
        bad.write_text("a,,label\n1.0,2.0,0\n3.0,4.0,1\n")
        return ["rank", "--features", bad, "--out", tmp_path / "r.csv"], bad
    if case == "plotdata_feature_not_in_file":
        # a feature of the extract table that this file does not hold
        table = tmp_path / "ab.csv"
        table.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
        return ["plotdata", "--features", table, "--feature", "rms",
                "--out", tmp_path / "p.csv"], table
    if case in _BAD_LABEL:
        # a label other than exactly 0, 1 or 2, on line 3 of the file
        command, label = _BAD_LABEL[case]
        bad = tmp_path / "labels.csv"
        if command == "extract":
            bad.write_text(f"path,label\na.wav,1\nb.wav,{label}\n")
            return ["extract", "--manifest", bad, "--out", tmp_path / "o.csv"], bad
        lines = features.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + label
        bad.write_text("\n".join(lines) + "\n")
        return [*evaluate, "--features", bad], bad
    if case == "out_dir_missing_rank":
        return ["rank", "--features", features, "--out", out_in_missing_dir], out_in_missing_dir
    if case == "out_dir_missing_evaluate":
        return [*evaluate, "--features", features, "--out", out_in_missing_dir], out_in_missing_dir
    if case == "out_dir_missing_plotdata":
        return ["plotdata", "--features", features, "--feature", "rms",
                "--out", out_in_missing_dir], out_in_missing_dir
    if case == "out_dir_is_a_file_synth":
        return ["synth", "--kind", "pulse", "--out-dir", features], features
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "config_missing", "config_malformed", "manifest_not_utf8", "features_not_utf8",
    "features_missing_evaluate", "features_missing_rank", "features_missing_plotdata",
    "out_dir_missing_extract", "out_dir_missing_rank", "out_dir_missing_evaluate",
    "out_dir_missing_plotdata", "out_dir_is_a_file_synth", "features_repeated_column_rank",
    "features_repeated_spaced_column_rank",
    *_NONFINITE, "features_unnamed_column_rank", "plotdata_feature_not_in_file", *_BAD_LABEL,
])
def test_bad_input_file_exit_2(tmp_path, capsys, case):
    argv, path = _bad_input_case(case, tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1 and [str(w.message) for w in caught] == []
    if case in _NONFINITE:
        assert "line 5:" in err and "not a finite number" in err
    if case in _BAD_LABEL:
        assert err.endswith(f"line 3: label '{_BAD_LABEL[case][1]}' is not one of 0, 1, 2\n")
    if case in ("features_repeated_column_rank", "features_repeated_spaced_column_rank"):
        assert "more than one column named 'a'" in err
    if case == "features_unnamed_column_rank":
        assert "no name for column 2" in err
    if case == "plotdata_feature_not_in_file":
        assert err.endswith("are: a, b\n")


def test_extract_unwritable_out_decodes_nothing(tmp_path, capsys, monkeypatch):
    """A bad --out fails before the first recording is decoded."""
    from voicepd import audio_io
    assert run("synth", "--kind", "pulse", "--out-dir", tmp_path, "--duration", 0.5,
               "--sample-rate", 16000, "--name", "a") == 0
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"{tmp_path / 'a.wav'},1\n")
    calls = []
    load_wav = audio_io.load_wav
    monkeypatch.setattr(audio_io, "load_wav", lambda path: calls.append(path) or load_wav(path))
    out = tmp_path / "no_such_dir" / "f.csv"
    assert run("extract", "--manifest", manifest, "--out", out) == 2
    assert str(out) in capsys.readouterr().err
    assert calls == []
    # the same manifest with a writable --out decodes its one recording
    assert run("extract", "--manifest", manifest, "--out", tmp_path / "f.csv") == 0
    assert calls == [str(tmp_path / "a.wav")]


def test_cli_import_loads_no_scipy():
    """The feature path is numpy-only: a stray scipy import would add its
    import time to the start-up of every command."""
    src = str(Path(voicepd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, voicepd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_rank_and_evaluate_load_no_numpy_ma(tmp_path):
    """No command of `rank` or `evaluate` calls np.unique, np.isin or
    np.median, whose first call imports numpy.ma: about 1.3 MB of memory
    and 10-20 ms in every process."""
    from voicepd.data import save_feature_csv
    from voicepd.synth import gen_blobs
    features = tmp_path / "f.csv"
    save_feature_csv(str(features), gen_blobs((12, 14, 15), separation=1.0, sigma=1.0, seed=5))
    commands = [["rank", "--features", str(features), "--out", str(tmp_path / "r.csv")]]
    commands += [["evaluate", "--features", str(features), "--algorithm", algorithm,
                  "--top-k", "8", "--cv-k", "3", "--out", str(tmp_path / f"{algorithm}.json")]
                 for algorithm in ALGORITHMS]
    src = str(Path(voicepd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys, numpy; print('numpy.ma' in sys.modules); "
            "from voicepd import cli; "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    lines = done.stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert lines[-1] == f"{[0] * len(commands)} False"


_MODEL_FIELDS = [(f.metadata["algorithm"], f.name, f.metadata["argument"])
                 for f in dataclasses.fields(RunConfig) if f.metadata["algorithm"]]


@pytest.mark.parametrize("algorithm,name,arg", _MODEL_FIELDS)
def test_hyperparameter_flag_reaches_model(tmp_path, monkeypatch, algorithm, name, arg):
    """A non-default flag value becomes its constructor argument on every
    model `evaluate` trains, and the model's other arguments keep their defaults."""
    from voicepd import evaluation
    from voicepd.data import save_feature_csv
    from voicepd.synth import gen_blobs
    cls = REGISTRY[algorithm]
    defaults = {a: inspect.signature(cls).parameters[a].default
                for algo, _, a in _MODEL_FIELDS if algo == algorithm}
    value = 2 if isinstance(defaults[arg], int) else defaults[arg] * 2
    assert value != defaults[arg]
    expected = {**defaults, arg: value}
    features = tmp_path / "f.csv"
    save_feature_csv(str(features), gen_blobs(10, seed=0))
    trained = []
    train_many = evaluation.train_many

    def spy(*args, **kwargs):
        models = train_many(*args, **kwargs)
        trained.extend(models)
        return models

    monkeypatch.setattr(evaluation, "train_many", spy)
    assert run("evaluate", "--features", features, "--algorithm", algorithm, "--cv-k", 3,
               "--" + name.replace("_", "-"), value) == 0
    assert len(trained) == 4  # three folds plus the holdout model
    for model in trained:
        assert {a: getattr(model.model, a) for a in expected} == expected
        assert type(getattr(model.model, arg)) is type(value)


def test_evaluate_flags_are_run_fields_plus_registry():
    args = build_parser().parse_args(["evaluate", "--features", "f.csv", "--algorithm", "knn"])
    flags = set(vars(args)) - {"command", "func", "features", "algorithm", "out", "config"}
    assert flags == {"seed", "bins", "top_k", "test_fraction", "cv_k",
                     *(name for _, name, _ in _MODEL_FIELDS)}
    # each field sets a constructor argument of its model, and no two fields
    # of a model set the same one
    for algorithm, _, arg in _MODEL_FIELDS:
        assert arg in inspect.signature(REGISTRY[algorithm]).parameters
    assert len({(algorithm, arg) for algorithm, _, arg in _MODEL_FIELDS}) == len(_MODEL_FIELDS)


# each config field's kind, range and whether it defaults to None, written
# out here so that a change to RunConfig's declarations shows up as a failure
_RANGES = [
    ("seed", int, "[0, inf)", False),
    ("frame_ms", float, "(0, inf)", False),
    ("hop_ms", float, "(0, inf)", False),
    ("f0_min", float, "(0, inf)", False),
    ("f0_max", float, "(-inf, inf)", False),
    ("voicing_threshold", float, "[0, 1]", False),
    ("sure_threshold", float, "(0, inf)", False),
    ("bins", int, "[2, 65536]", False),
    ("top_k", int, "[1, inf)", True),
    ("test_fraction", float, "(0, 1)", False),
    ("cv_k", int, "[2, inf)", False),
    ("knn_k", int, "[1, inf)", True),
    ("tree_max_depth", int, "[1, inf)", True),
    ("tree_min_leaf", int, "[1, inf)", True),
    ("nb_var_floor", float, "(0, inf)", True),
    ("svm_lambda", float, "(0, inf)", True),
    ("svm_epochs", int, "[1, inf)", True),
    ("nn_hidden", int, "[1, inf)", True),
    ("nn_lr", float, "(0, inf)", True),
    ("nn_epochs", int, "[1, inf)", True),
    ("nn_batch", int, "[1, inf)", True),
]


def _range_text(interval):
    """How errors, --help and README write an interval: '>= 1', '> 0', 'in [0, 1]'."""
    low, high = interval[1:-1].split(", ")
    if high != "inf":
        return f"in {interval}"
    if low == "-inf":
        return ""
    return (">= " if interval[0] == "[" else "> ") + low


def test_config_fields_are_the_pinned_ones():
    assert [f.name for f in dataclasses.fields(RunConfig)] == [r[0] for r in _RANGES]


@pytest.mark.parametrize("name,kind,interval,nullable", _RANGES)
def test_config_range_is_pinned(tmp_path, capsys, name, kind, interval, nullable):
    """A --config value at a closed bound, or just inside an open one, is
    accepted; the value at an open bound and the nearest value outside a
    bound exit 2 with one error line."""
    def rejected(value):
        return f"error: config {name} must be {_range_text(interval)}, got {value}\n"

    def verdict(value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        capsys.readouterr()
        # the config is checked before the missing feature table is read
        assert run("rank", "--features", tmp_path / "missing.csv", "--out",
                   tmp_path / "r.csv", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return "accepted" if "cannot read feature CSV" in err else err

    low, high = interval[1:-1].split(", ")
    for bound, closed, outward in ((low, interval[0] == "[", -1), (high, interval[-1] == "]", 1)):
        if bound in ("-inf", "inf"):
            continue
        bound = kind(float(bound))
        if kind is int:
            outside, inside = bound + outward, bound - outward
        else:
            outside = math.nextafter(bound, outward * math.inf)
            inside = math.nextafter(bound, -outward * math.inf)
        assert verdict(outside) == rejected(outside)
        if closed:
            assert verdict(bound) == "accepted"
        else:
            assert verdict(bound) == rejected(bound)
            assert verdict(inside) == "accepted"
    annotation = f"{kind.__name__} | None" if nullable else kind.__name__
    if kind is int:
        assert verdict(1.0) == f"error: config {name} must be {annotation}, got 1.0\n"
    if nullable:
        assert verdict(None) == "accepted"
    else:
        assert verdict(None) == f"error: config {name} must be {annotation}, got None\n"


@pytest.mark.parametrize("command,n_flags", [("extract", 6), ("rank", 1), ("evaluate", 15)])
def test_help_shows_each_config_flag_range(capsys, command, n_flags):
    assert run(command, "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    shown = 0
    for name, kind, interval, _ in _RANGES:
        flag = "--" + name.replace("_", "-")
        if f"[{flag} " not in text:  # not a flag of this command
            continue
        shown += 1
        entry = " ".join(filter(None, [flag, name.upper(), kind.__name__, _range_text(interval)]))
        assert f"{entry} (default: " in text
    assert shown == n_flags
    if command == "extract":
        assert "--f0-min must be below --f0-max" in text


def test_readme_gives_each_config_flag_range_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        if line.startswith("| `--"):
            cells = [c.strip() for c in line.split("|")]
            rows[cells[1]] = cells
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for name, kind, interval, _ in _RANGES:
        _, _, kind_cell, range_cell, default_cell, *_ = rows["`--" + name.replace("_", "-") + "`"]
        assert kind_cell == kind.__name__
        assert range_cell == _range_text(interval) or _range_text(interval) == ""
        algorithm, default = fields[name].metadata["algorithm"], fields[name].default
        if algorithm:
            default = inspect.signature(REGISTRY[algorithm]).parameters[
                fields[name].metadata["argument"]].default
        if default is None:
            assert default_cell == "every feature"
        else:
            assert float(default_cell) == default


class TestFullPipelineDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        outputs = []
        for run_dir in ("run1", "run2"):
            base = tmp_path / run_dir
            base.mkdir()
            manifest = synth_dataset(str(base), per_class=4)
            features = base / "features.csv"
            ranked = base / "ranked.csv"
            report = base / "report.json"
            assert run("extract", "--manifest", manifest, "--out", features) == 0
            assert run("rank", "--features", features, "--out", ranked) == 0
            assert run("evaluate", "--features", features, "--algorithm", "tree",
                       "--cv-k", 3, "--test-fraction", 0.25, "--seed", 1,
                       "--out", report) == 0
            outputs.append(
                (features.read_bytes(), ranked.read_bytes(), report.read_bytes())
            )
        assert outputs[0] == outputs[1]
