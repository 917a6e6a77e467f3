import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicepd.data import CLASS_NAMES, LabeledDataset, label_classes
from voicepd.errors import DataError
from voicepd.evaluation import (
    ConfusionMatrix,
    _round_half_up,
    cross_validate,
    evaluate,
    kfold,
    metrics,
    run_experiment,
    stratified_split,
)
from voicepd.synth import gen_blobs


log = logging.getLogger(__name__)


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs((22, 28, 30), seed=5)


def oracle_stratified_split(dataset, test_fraction, seed):
    """The earlier stratified_split: an index list per class draw, sorted."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    if n == 0:
        raise DataError("the dataset has no rows to split")
    target = _round_half_up(n * test_fraction)
    if not 0 < target < n:
        side = "holdout" if target == 0 else "training"
        raise DataError(f"test_fraction {test_fraction} of {n} rows leaves an empty {side} set")
    classes = label_classes(dataset.labels).tolist()
    exact = {c: np.count_nonzero(dataset.labels == c) * test_fraction for c in classes}
    counts = {c: _round_half_up(exact[c]) for c in classes}
    frac = {c: exact[c] - np.floor(exact[c]) for c in classes}
    while sum(counts.values()) < target:
        c = max(classes, key=lambda c: (frac[c], -c))
        counts[c] += 1
        frac[c] -= 1.0
    while sum(counts.values()) > target:
        c = min(classes, key=lambda c: (frac[c], c))
        if counts[c] > 0:
            counts[c] -= 1
        frac[c] += 1.0
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    for c in classes:
        members = np.flatnonzero(dataset.labels == c)
        if counts[c] == 0 and len(members) * test_fraction >= 0.5:
            log.warning("class %d contributes no test samples", c)
        perm = rng.permutation(len(members))
        test_idx.extend(members[perm[: counts[c]]].tolist())
    test = np.array(sorted(test_idx), dtype=np.int64)
    train_mask = np.ones(n, dtype=bool)
    train_mask[test] = False
    return np.flatnonzero(train_mask), test


def oracle_kfold(dataset, k, seed):
    """The earlier kfold: one index list per fold, filled class by class."""
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    counts = {c: n for c, n in dataset.class_counts().items() if n > 0}
    if not counts:
        raise DataError("the dataset has no rows to split into folds")
    smallest = min(counts.values())
    if k > smallest:
        raise DataError(
            f"k={k} exceeds smallest class count {smallest}; use k <= {smallest}"
        )
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in sorted(counts):
        members = np.flatnonzero(dataset.labels == c)
        perm = members[rng.permutation(len(members))]
        base, extra = divmod(len(perm), k)
        order = sorted(range(k), key=lambda f: (len(folds[f]), f))
        quota = {f: base for f in range(k)}
        for f in order[:extra]:
            quota[f] += 1
        pos = 0
        for f in range(k):
            folds[f].extend(perm[pos:pos + quota[f]].tolist())
            pos += quota[f]
    out = []
    n = len(dataset)
    for f in range(k):
        test = np.array(sorted(folds[f]), dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        out.append((np.flatnonzero(mask), test))
    return out


def sized_dataset(sizes, order_seed=0):
    """A one-feature table with sizes[c] rows of class c, the rows shuffled."""
    labels = np.repeat(np.arange(3), sizes)
    labels = labels[np.random.default_rng(order_seed).permutation(len(labels))]
    return LabeledDataset(features=np.arange(len(labels), dtype=float)[:, None],
                          labels=labels, feature_names=["f"])


def assert_same_index_pairs(got, want):
    assert len(got) == len(want)
    for pair, oracle_pair in zip(got, want):
        for a, b in zip(pair, oracle_pair):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)


class TestStratifiedSplit:
    def test_80_at_15_percent(self, blobs):
        train_idx, test_idx = stratified_split(blobs, 0.15, seed=0)
        assert len(test_idx) == 12
        assert len(train_idx) == 68
        test_labels = blobs.labels[test_idx]
        counts = tuple(int(np.count_nonzero(test_labels == c)) for c in (0, 1, 2))
        assert counts == (3, 4, 5)

    def test_disjoint_union(self, blobs):
        train_idx, test_idx = stratified_split(blobs, 0.15, seed=1)
        assert set(train_idx).isdisjoint(test_idx)
        assert sorted(list(train_idx) + list(test_idx)) == list(range(80))

    def test_two_sample_balanced(self):
        ds = gen_blobs(1, seed=0)
        ds2 = LabeledDataset(features=ds.features[:2], labels=np.array([0, 1]),
                             feature_names=list(ds.feature_names))
        train_idx, test_idx = stratified_split(ds2, 0.5, seed=0)
        assert len(train_idx) == 1 and len(test_idx) == 1

    def test_bad_fraction(self, blobs):
        with pytest.raises(DataError):
            stratified_split(blobs, 0.0, seed=0)

    # 25/25/22 at 0.1 rounds to 3+3+2 > 7 and runs the decrement loop;
    # 12/12/12 at 0.2 rounds to 2+2+2 < 7 and runs the increment loop
    @pytest.mark.parametrize("sizes,fraction", [
        ((25, 25, 22), 0.1), ((12, 12, 12), 0.2), ((22, 28, 30), 0.15),
        ((110, 140, 150), 0.15), ((10, 10, 1), 0.15), ((0, 9, 4), 0.3),
        ((5, 0, 0), 0.5), ((1, 1, 1), 0.5), ((3, 7, 2), 0.9),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_matches_list_oracle(self, sizes, fraction, seed):
        ds = sized_dataset(sizes, order_seed=seed)
        assert_same_index_pairs(stratified_split(ds, fraction, seed),
                                oracle_stratified_split(ds, fraction, seed))

    @given(sizes=st.tuples(*[st.integers(0, 39)] * 3), fraction=st.floats(0.01, 0.99),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_list_oracle_any_table(self, sizes, fraction, seed):
        ds = sized_dataset(sizes, order_seed=seed)
        try:
            want = oracle_stratified_split(ds, fraction, seed)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                stratified_split(ds, fraction, seed)
            return
        assert_same_index_pairs(stratified_split(ds, fraction, seed), want)


class TestKfold:
    def test_folds_of_eight(self, blobs):
        folds = kfold(blobs, 10, seed=0)
        assert [len(test) for _, test in folds] == [8] * 10

    def test_partition_property(self, blobs):
        folds = kfold(blobs, 10, seed=2)
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test) == list(range(80))
        for i, (_, a) in enumerate(folds):
            for _, b in folds[i + 1:]:
                assert set(a).isdisjoint(b)

    def test_per_class_within_one(self, blobs):
        folds = kfold(blobs, 10, seed=3)
        for _, test in folds:
            labels = blobs.labels[test]
            counts = [int(np.count_nonzero(labels == c)) for c in (0, 1, 2)]
            for count, exact in zip(counts, (2.2, 2.8, 3.0)):
                assert abs(count - exact) <= 1

    def test_k_exceeds_smallest_class(self, blobs):
        with pytest.raises(DataError, match="smaller|use k"):
            kfold(blobs, 23, seed=0)

    # a class with no rows, a class of exactly k rows, and k equal to the
    # smallest class all come up across these sizes and every valid k
    @pytest.mark.parametrize("sizes", [
        (22, 28, 30), (0, 5, 7), (3, 3, 3), (4, 9, 6), (0, 0, 6),
        (2, 17, 40), (25, 25, 22), (11, 0, 13),
    ])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_list_oracle(self, sizes, seed):
        ds = sized_dataset(sizes, order_seed=seed)
        for k in range(2, min(n for n in sizes if n > 0) + 1):
            assert_same_index_pairs(kfold(ds, k, seed), oracle_kfold(ds, k, seed))

    @given(sizes=st.tuples(*[st.integers(0, 39)] * 3).filter(
               lambda s: min((n for n in s if n > 0), default=0) >= 2),
           data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_list_oracle_any_table(self, sizes, data, seed):
        k = data.draw(st.integers(2, min(n for n in sizes if n > 0)), label="k")
        ds = sized_dataset(sizes, order_seed=seed)
        assert_same_index_pairs(kfold(ds, k, seed), oracle_kfold(ds, k, seed))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_partition_any_seed(self, seed):
        ds = gen_blobs((5, 7, 9), seed=1)
        folds = kfold(ds, 5, seed=seed)
        all_test = sorted(np.concatenate([test for _, test in folds]))
        assert all_test == list(range(21))


class TestEvaluateAndMetrics:
    def test_perfect_predictor_diag(self, blobs):
        from voicepd.classifiers import train
        ds = gen_blobs(10, seed=2)
        model = train("knn", ds, {"k": 1}, seed=0)
        cm = evaluate(model, ds)
        np.testing.assert_array_equal(cm.counts, np.diag([10, 10, 10]))

    def test_constant_predictor_column(self):
        class Constant:
            def predict(self, X):
                return np.zeros(len(X), dtype=np.int64)

        from voicepd.classifiers import TrainedModel
        from voicepd.data import Standardizer
        ds = gen_blobs(10, seed=3)
        std = Standardizer().fit(ds.features)
        model = TrainedModel(algorithm="const", model=Constant(), standardizer=std)
        cm = evaluate(model, ds)
        np.testing.assert_array_equal(cm.counts[:, 0], [10, 10, 10])
        assert cm.counts[:, 1:].sum() == 0
        assert cm.total == len(ds)

    def test_identity_cm_metrics(self):
        report = metrics(ConfusionMatrix(np.diag([5, 5, 5])))
        assert report.accuracy == 1.0
        for m in report.per_class.values():
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_hand_metrics_case(self):
        cm = ConfusionMatrix(np.array([[8, 1, 1], [2, 6, 2], [1, 1, 8]]))
        report = metrics(cm)
        assert report.accuracy == pytest.approx(22 / 30, abs=1e-9)
        m0 = report.per_class[0]
        assert m0.precision == pytest.approx(8 / 11, abs=1e-9)
        assert m0.recall == pytest.approx(0.8, abs=1e-9)
        assert m0.f1 == pytest.approx(0.7619, abs=1e-4)

    def test_report_schema(self):
        cm = ConfusionMatrix(np.diag([5, 5, 5]))
        d = metrics(cm).to_dict()
        assert set(d["per_class"]) == {"0 (Med Off)", "1 (Healthy)", "2 (Med On)"}
        for entry in d["per_class"].values():
            assert {"precision", "recall", "f1"} <= set(entry)
        assert "accuracy" in d

    def test_zero_denominator_flagged(self):
        cm = ConfusionMatrix(np.array([[5, 0, 0], [5, 0, 0], [0, 0, 0]]))
        report = metrics(cm)
        assert report.per_class[2].zero_denominator
        assert report.per_class[2].precision == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            metrics(ConfusionMatrix())


class TestCrossValidate:
    def test_blobs_pooled_accuracy(self, blobs):
        for algorithm in ("knn", "nb"):
            result = cross_validate(algorithm, blobs, 10, seed=0)
            assert result.pooled.accuracy >= 0.95

    def test_pooled_total_is_dataset_size(self, blobs):
        result = cross_validate("nb", blobs, 10, seed=1)
        assert result.pooled_cm.total == len(blobs)

    def test_same_seed_identical(self, blobs):
        r1 = cross_validate("tree", blobs, 10, seed=5)
        r2 = cross_validate("tree", blobs, 10, seed=5)
        np.testing.assert_array_equal(r1.pooled_cm.counts, r2.pooled_cm.counts)

    def test_pooled_accuracy_is_weighted_fold_mean(self, blobs):
        result = cross_validate("nb", blobs, 10, seed=2)
        weighted = sum(r.accuracy * cm.total for r, cm in
                       zip(result.fold_reports, result.fold_cms))
        assert result.pooled.accuracy == pytest.approx(weighted / len(blobs), abs=1e-12)

    def test_no_leakage_from_test_rows(self, blobs):
        # perturbing a known test row must not change that fold's predictions
        # of the other test rows (training-side statistics exclude it)
        folds = kfold(blobs, 10, seed=7)
        train_idx, test_idx = folds[0]
        from voicepd.classifiers import train as fit
        model_a = fit("nb", blobs.subset(train_idx), seed=0)
        perturbed = blobs.features.copy()
        perturbed[test_idx[0]] += 100.0
        ds_b = LabeledDataset(perturbed, blobs.labels, list(blobs.feature_names))
        model_b = fit("nb", ds_b.subset(train_idx), seed=0)
        np.testing.assert_array_equal(
            model_a.standardizer.mean, model_b.standardizer.mean
        )
        rest = test_idx[1:]
        np.testing.assert_array_equal(
            model_a.predict(blobs.features[rest]), model_b.predict(perturbed[rest])
        )

    def test_top_k_selection_inside_folds(self, blobs):
        result = cross_validate("nb", blobs, 5, seed=0, top_k=5)
        assert result.pooled.accuracy >= 0.9


class TestRunExperiment:
    def test_report_structure(self, blobs):
        report = run_experiment(blobs, "knn", seed=0)
        assert report["model"] == "knn"
        assert "holdout" in report and "cv" in report
        assert len(report["cv"]["folds"]) == 10
        cm = np.array(report["holdout_confusion_matrix"])
        assert cm.shape == (3, 3) and cm.sum() == 12
        pooled = np.array(report["cv"]["pooled_confusion_matrix"])
        assert pooled.sum() == 68  # CV runs on the training portion
