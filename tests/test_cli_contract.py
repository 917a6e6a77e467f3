"""The CLI contract over the values of every config field, and over the
manifest, feature-CSV and WAV bytes the commands read.

Whatever number a flag or a `--config` file gives a `RunConfig` field, under
every command that takes the field, the command exits 0, 1 or 2; an exit 2
prints exactly one `error:` line and nothing else to stderr; and no warning
is raised or logged, but for the kNN `k > n` clamp when the drawn field is
`knn_k`.
The fields, their kinds and ranges come from the `_tunable` declarations in
`voicepd.cli`, and the values drawn for each are its bounds and their
neighbours, 0, +-1, +-1e308, 1e-320, nan, inf and an integer beyond float64.

Out of scope: size-like values above 10**6 for `--nn-hidden`, `--nn-batch`,
`--svm-epochs` and `--nn-epochs`.  The table bounds these only from below,
so such a value is valid and asks for as much memory or time as it says.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicepd import cli
from voicepd.classifiers import ALGORITHMS
from voicepd.data import save_feature_csv
from voicepd.synth import gen_blobs

_FIELDS = {f.name: f for f in dataclasses.fields(cli.RunConfig)}
_SIZE_LIKE = {"nn_hidden", "nn_batch", "svm_epochs", "nn_epochs"}
# three folds fit the 9/8/8 training rows the 10/10/10 table leaves after the
# holdout, and three epochs keep each fit short
_EVALUATE_DEFAULTS = {"cv_k": 3, "svm_epochs": 3, "nn_epochs": 3}

# (command, field, algorithm): a model's field under its own algorithm, every
# other evaluate field under each algorithm
_CASES = ([("extract", name, None) for name in cli._EXTRACT_FIELDS]
          + [("rank", "bins", None)]
          + [("evaluate", name, algorithm) for name in cli._EVAL_FIELDS
             for algorithm in ALGORITHMS
             if _FIELDS[name].metadata["algorithm"] in (None, algorithm)])


def _values(f: dataclasses.Field) -> list:
    kind = f.metadata["kind"]
    values = [0, 1, -1, 1e308, -1e308, 1e-320, math.nan, math.inf, 10 ** 400]
    for bound, _ in (f.metadata["low"], f.metadata["high"]):
        if bound is None:
            continue
        if kind is int:
            values += [bound - 1, bound, bound + 1]
        else:
            values += [math.nextafter(bound, -math.inf), float(bound),
                       math.nextafter(bound, math.inf)]
    if f.name in _SIZE_LIKE:
        values = [v for v in values if not (isinstance(v, int) and v > 10 ** 6)]
    return values


def _flag(name: str, value) -> str:
    # one argv word, so argparse cannot take a value such as -5e-324 for an option
    text = str(value) if isinstance(value, int) else repr(value)
    return f"--{name.replace('_', '-')}={text}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A two-pulse manifest and a 10/10/10 blob feature CSV."""
    root = tmp_path_factory.mktemp("contract")
    lines = ["path,label"]
    for name, jitter, label in (("a", 0, 1), ("b", 2, 0)):
        assert cli.main(["synth", "--kind", "pulse", "--out-dir", str(root),
                         "--duration", "0.5", "--sample-rate", "16000",
                         "--jitter", str(jitter), "--name", name]) == 0
        lines.append(f"{root / (name + '.wav')},{label}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    save_feature_csv(str(root / "blobs.csv"), gen_blobs(10, seed=0))
    save_feature_csv(str(root / "small.csv"), gen_blobs(10, dims=3, seed=0))
    return root


def _argv(command: str, algorithm, root) -> list[str]:
    if command == "extract":
        return ["extract", "--manifest", str(root / "manifest.csv"),
                "--out", str(root / "features.csv")]
    if command == "rank":
        return ["rank", "--features", str(root / "blobs.csv"), "--out", str(root / "ranked.csv")]
    return ["evaluate", "--features", str(root / "blobs.csv"), "--algorithm", algorithm,
            "--out", str(root / "report.json")]


@pytest.mark.parametrize("command,name,algorithm", _CASES)
def test_every_value_keeps_the_exit_contract(inputs, capsys, caplog, command, name,
                                             algorithm):
    defaults = _EVALUATE_DEFAULTS if command == "evaluate" else {}

    def run(value, via_config):
        argv = _argv(command, algorithm, inputs)
        argv += [_flag(n, v) for n, v in defaults.items() if n != name or value is None]
        if via_config:
            config = inputs / "config.json"
            config.write_text(json.dumps({name: value}))
            argv += ["--config", str(config)]
        elif value is not None:
            argv.append(_flag(name, value))
        capsys.readouterr()
        caplog.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        err = capsys.readouterr().err
        # the CLI's log warnings print to stderr, but pytest captures them here
        logged = [r.getMessage() for r in caplog.records
                  if not (name == "knn_k" and "clamping to n" in r.getMessage())]
        return code, err, [str(w.message) for w in caught] + logged

    # the grid is only worth its runs if the command works without the drawn value
    code, err, raised = run(None, via_config=False)
    assert (code, raised) == (0, []), err

    broken = []
    for value in _values(_FIELDS[name]):
        for via_config in (False, True):
            code, err, raised = run(value, via_config)
            one_error_line = err.startswith("error: ") and err.count("\n") == 1
            if code not in (0, 1, 2) or code == 2 and not one_error_line or raised:
                broken.append((value, "config" if via_config else "flag", code, err, raised))
    assert broken == []


# --- the input files -----------------------------------------------------------
#
# The same contract over the bytes of the three input files: manifest lines,
# feature-CSV text and mutations of a valid 16-bit WAV, drawn by hypothesis and
# run through the command that reads them.  A RuntimeWarning here would print
# to stderr outside pytest.  Out of scope, as in the grid above: size-like
# values, here tables and WAVs larger than a few dozen rows or a second.

_FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _keeps_the_contract(argv):
    """Run the CLI on argv and assert the contract, stdout and stderr captured."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    err = err.getvalue()
    assert code in (0, 1, 2), err
    assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1), err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


_LABEL_TEXT = st.sampled_from(["0", "1", "2", " 1 ", "1.0", "01", "-0", "x", "", "٣"])
_MANIFEST_LINE = st.tuples(
    st.text(" ,'\"a.é", max_size=6),            # a file name, after a fixed "w"
    st.booleans(),                               # whether that file exists
    st.sampled_from(["{}", '"{}"', " {} "]),     # how the line writes the path
    _LABEL_TEXT | st.text(st.characters(codec="utf-8"), max_size=3),
    st.just("") | st.sampled_from([",1", ","]),  # extra fields
)


@_FUZZ
@given(header=st.booleans(), lines=st.lists(_MANIFEST_LINE, min_size=1, max_size=4))
def test_manifest_lines_keep_the_exit_contract(inputs, header, lines):
    wavs = inputs / "fuzz_wavs"
    shutil.rmtree(wavs, ignore_errors=True)
    wavs.mkdir()
    text = ["path,label"] if header else []
    for name, exists, form, label, extra in lines:
        path = wavs / f"w{name}.wav"
        if exists:
            shutil.copyfile(inputs / "a.wav", path)
        text.append(f"{form.format(path)},{label}{extra}")
    manifest = inputs / "fuzz_manifest.csv"
    manifest.write_text("\n".join(text) + "\n", encoding="utf-8")
    _keeps_the_contract(["extract", "--manifest", manifest, "--out", inputs / "fuzz.csv"])


_NAMES = st.sampled_from(["a", "b", "", " a", "label", "f0"])
_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e999", "1e-320", "5e-324", "-0", "",
                          "1e308", "-1e308", "0x1", "1_0", " 2 ", "3", "x"])
_CSV_EDIT = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 29), st.integers(0, 4), _CELLS),
    st.tuples(st.just("field"), st.integers(0, 29), st.booleans()),  # one field more or less
    st.tuples(st.just("byte"), st.integers(0, 2000), st.sampled_from([b"\xff", b"\xe9", b"\x00"])),
)


@_FUZZ
@given(
    header=st.none() | st.lists(_NAMES, max_size=4),  # the feature names; None: f0,f1,f2
    rows=st.just(30) | st.integers(0, 29),
    edits=st.lists(_CSV_EDIT, max_size=3),
    command=st.sampled_from(["rank", "plotdata", *ALGORITHMS]),
)
def test_feature_csv_text_keeps_the_exit_contract(inputs, header, rows, edits, command):
    names = ["f0", "f1", "f2"] if header is None else header
    # each row as wide as the header: its three values repeated, then its label
    table = [[*(values[j % 3] for j in range(len(names))), values[-1]]
             for values in (line.split(",") for line in
                            (inputs / "small.csv").read_text().splitlines()[1:rows + 1])]
    for kind, row, *edit in edits:
        if kind == "cell" and row < len(table) and edit[0] < len(table[row]):
            table[row][edit[0]] = edit[1]
        elif kind == "field" and row < len(table):
            table[row] = table[row] + ["1"] if edit[0] else table[row][:-1]
    data = "\n".join(",".join(r) for r in [names + ["label"], *table]).encode() + b"\n"
    for kind, at, byte in (e for e in edits if e[0] == "byte"):
        data = data[:at] + byte + data[at:]
    features = inputs / "fuzz_features.csv"
    features.write_bytes(data)
    out = inputs / "fuzz_out"
    if command == "rank":
        argv = ["rank", "--out", out]
    elif command == "plotdata":
        argv = ["plotdata", "--feature", (names or ["f0"])[0], "--out", out]
    else:
        argv = ["evaluate", "--algorithm", command, "--out", out,
                *(_flag(n, v) for n, v in _EVALUATE_DEFAULTS.items())]
    _keeps_the_contract([*argv, "--features", features])


# (offset, byte width) of each header field of the canonical 44-byte header
_WAV_FIELDS = {"riff_size": (4, 4), "fmt_size": (16, 4), "format": (20, 2),
               "channels": (22, 2), "sample_rate": (24, 4), "byte_rate": (28, 4),
               "block_align": (32, 2), "bits": (34, 2), "data_size": (40, 4)}
# the edits refer to the 16044 bytes of the 0.5-s, 16-kHz `a.wav`
_WAV_EDIT = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 16044)),
    st.tuples(st.sampled_from(sorted(_WAV_FIELDS)),
              st.sampled_from([0, 1, 2, 3, 8, 24, 32, 44100, 2 ** 15, 2 ** 16 - 1, 2 ** 31])
              | st.integers(0, 2 ** 32 - 1)),
    # a LIST chunk before `fmt ` (offset 12) or before `data` (36): its
    # payload length and the size its header claims
    st.tuples(st.just("list"), st.sampled_from([12, 36]), st.integers(0, 9),
              st.integers(0, 12) | st.just(2 ** 32 - 1)),
    st.tuples(st.just("byte"), st.integers(0, 16043), st.integers(0, 255)),
)


@_FUZZ
@given(edits=st.lists(_WAV_EDIT, min_size=1, max_size=3))
def test_wav_bytes_keep_the_exit_contract(inputs, edits):
    data = bytearray((inputs / "a.wav").read_bytes())
    for edit in edits:
        if edit[0] == "truncate":
            del data[edit[1]:]
        elif edit[0] == "list":
            _, at, length, claimed = edit
            data[at:at] = b"LIST" + claimed.to_bytes(4, "little") + b"\x01" * length
        elif edit[0] == "byte":
            if edit[1] < len(data):
                data[edit[1]] = edit[2]
        else:
            offset, width = _WAV_FIELDS[edit[0]]
            data[offset:offset + width] = (edit[1] % 256 ** width).to_bytes(width, "little")
    wav = inputs / "fuzz.wav"
    wav.write_bytes(bytes(data))
    manifest = inputs / "fuzz_wav_manifest.csv"
    manifest.write_text(f"{wav},1\n")
    _keeps_the_contract(["extract", "--manifest", manifest, "--out", inputs / "fuzz.csv"])
