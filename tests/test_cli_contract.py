"""The CLI contract over the values of every config field.

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

import dataclasses
import json
import math
import warnings

import pytest

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
        raised = [str(w.message) for w in caught
                  if not (name == "knn_k" and "clamping to n" in str(w.message))]
        return code, err, raised + [r.getMessage() for r in caplog.records]

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
