import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicepd.data import CLASS_NAMES, LabeledDataset
from voicepd.errors import DataError
from voicepd.evaluation import (
    ConfusionMatrix,
    cross_validate,
    evaluate,
    kfold,
    metrics,
    run_experiment,
    stratified_split,
)
from voicepd.synth import gen_blobs


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs((22, 28, 30), seed=5)


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
