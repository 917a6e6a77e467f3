"""The pipeline's outputs on one data seed of each benchmark workload, pinned.

`scripts/make_golden.py` wrote tests/golden/outputs.json; these tests run
the same commands and compare: the `extract` feature rows to rtol 1e-12,
its labels and rejected recordings exactly, and every confusion matrix of
every `evaluate` report exactly.  The matrices are integers, so last-bit
differences between numpy builds do not reach them, while a changed
trainer step or split rule does.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from voicepd.classifiers import ALGORITHMS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "scripts"))
        import make_golden
        return make_golden.collect(tmp_path_factory.mktemp("golden"))


def test_same_seed(observed, golden):
    assert observed["seed"] == golden["seed"]


def test_extract_rows(observed, golden):
    got, want = observed["extract"], golden["extract"]
    assert got["labels"] == want["labels"]
    np.testing.assert_allclose(np.array(got["rows"]), np.array(want["rows"]), rtol=1e-12, atol=0)


def test_extract_rejects(observed, golden):
    assert observed["extract"]["rejects"] == golden["extract"]["rejects"]


@pytest.mark.parametrize("workload", ["evaluate-small", "evaluate-large"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_confusion_matrices(observed, golden, workload, algorithm):
    assert observed[workload][algorithm] == golden[workload][algorithm]
