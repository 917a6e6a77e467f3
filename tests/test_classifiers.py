import sys
import warnings

import numpy as np
import pytest

from voicepd.classifiers import (
    ALGORITHMS,
    DecisionTree,
    KNearestNeighbors,
    LinearSVM,
    NeuralNetwork,
    train,
)
from voicepd.data import LabeledDataset
from voicepd.errors import DataError
from voicepd.evaluation import evaluate, stratified_split
from voicepd.synth import gen_blobs


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs((22, 28, 30), seed=5)


def small_dataset(labels, features=None):
    labels = np.asarray(labels)
    if features is None:
        rng = np.random.default_rng(0)
        features = rng.standard_normal((len(labels), 4))
    names = [f"f{j}" for j in range(features.shape[1])]
    return LabeledDataset(features=features, labels=labels, feature_names=names)


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [[1.7, 2.9], [float("nan"), 1.0], [float("inf"), 0.0],
                                        [1e300, 0.0], [-1.0, 0.0], np.array(["a", "b"])])
    def test_labels_not_in_the_classes_rejected(self, labels):
        # a cast to int64 would truncate 1.7 to 1 and warn on nan, inf or 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"labels must be in \{0, 1, 2\}"):
                LabeledDataset(np.zeros((2, 1)), labels, ["a"])

    def test_integral_float_labels_accepted(self):
        ds = LabeledDataset(np.zeros((3, 1)), [2.0, 0.0, 1.0], ["a"])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0, 1]


class TestTrain:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_class_predicts_that_class(self, algorithm):
        ds = small_dataset([2] * 10)
        model = train(algorithm, ds, seed=0)
        assert np.all(model.predict(ds.features) == 2)

    def test_knn_k1_memorizes_training_set(self, blobs):
        model = train("knn", blobs, {"k": 1}, seed=0)
        assert np.all(model.predict(blobs.features) == blobs.labels)

    def test_knn_k_clamped_with_warning(self, caplog):
        ds = small_dataset([0, 1, 2])
        model = train("knn", ds, {"k": 10}, seed=0)
        assert "knn k=10 > n=3; clamping to n" in caplog.messages
        np.testing.assert_array_equal(model.predict(ds.features),
                                      train("knn", ds, {"k": 3}, seed=0).predict(ds.features))

    def test_knn_refit_clamps_from_configured_k(self, caplog):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((100, 2)), rng.integers(0, 3, size=100)
        knn = KNearestNeighbors(k=5)
        knn.fit(X[:3], y[:3])
        assert "knn k=5 > n=3; clamping to n" in caplog.messages
        knn.fit(X, y)
        np.testing.assert_array_equal(knn.predict(X), KNearestNeighbors(k=5).fit(X, y).predict(X))

    def test_empty_dataset_rejected(self):
        ds = LabeledDataset(features=np.empty((0, 3)), labels=np.array([], dtype=int),
                            feature_names=["a", "b", "c"])
        with pytest.raises(DataError):
            train("knn", ds)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_blobs_high_holdout_accuracy(self, blobs, algorithm):
        train_idx, test_idx = stratified_split(blobs, 0.15, seed=3)
        model = train(algorithm, blobs.subset(train_idx), seed=3)
        cm = evaluate(model, blobs.subset(test_idx))
        accuracy = np.trace(cm.counts) / cm.total
        assert accuracy >= 0.95


class TestPredict:
    def test_training_point_1nn_own_label(self, blobs):
        model = train("knn", blobs, {"k": 1}, seed=0)
        row = blobs.features[5:6]
        label = int(model.predict(row)[0])
        assert label == blobs.labels[5]

    def test_knn_tie_deterministic(self):
        # one class-0 point slightly nearer, one class-1 point slightly farther
        features = np.array([[0.0, 0.0], [2.0, 0.0], [0.9, 0.0]])
        ds = small_dataset([0, 1, 0], features=features)
        knn = KNearestNeighbors(k=2).fit(features, ds.labels)
        # query at 1.0: neighbors are points 0 (d=1.0... ) and 2 (d=0.1), both class 0
        assert knn.predict(np.array([[0.95, 0.0]]))[0] == 0
        # equidistant single-vote tie between classes 0 and 1
        knn2 = KNearestNeighbors(k=2).fit(np.array([[0.0], [2.0]]), np.array([0, 1]))
        assert knn2.predict(np.array([[1.0]]))[0] == 0

    def test_feature_count_mismatch(self, blobs):
        model = train("nb", blobs, seed=0)
        with pytest.raises(DataError, match="expected 19"):
            model.predict(np.zeros((1, 4)))


class TestDecisionTree:
    def test_depth_beyond_recursion_limit(self):
        # labels alternate along the one non-constant feature, so every split
        # peels one row off the end and the tree is a chain n - 1 levels deep
        n = 1200
        X = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        y = np.arange(n) % 2
        tree = DecisionTree(max_depth=100_000).fit(X, y)
        depth, stack = 0, [(tree.root, 0)]
        while stack:
            node, level = stack.pop()
            depth = max(depth, level)
            stack += [(node[side], level + 1) for side in ("left", "right") if side in node]
        assert depth == n - 1 > sys.getrecursionlimit()
        np.testing.assert_array_equal(tree.predict(X), y)


class TestNeuralNetworkGradients:
    def test_loss_nonincreasing_on_blobs(self, blobs):
        # a fit of e epochs has the parameters a longer fit had after epoch e,
        # since every epoch draws one permutation from the same generator
        losses = []
        for epochs in (1, 51, 101, 151):
            model = train("nn", blobs, {"epochs": epochs}, seed=1)
            X = model.standardizer.transform(blobs.features)
            losses.append(model.model.loss_and_gradients(X, blobs.labels)[0])
        # windowed check: allow small transient upticks
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.05


class TestNeuralNetworkLossPass:
    @pytest.mark.parametrize("epochs", [0, 7])
    def test_forward_passes_per_fit(self, monkeypatch, epochs):
        """The forward pass over all training rows runs once per fit, after
        the last epoch, for the divergence check."""
        from voicepd import classifiers
        calls = []
        forward = classifiers._forward
        monkeypatch.setattr(classifiers, "_forward",
                            lambda *args: calls.append(args[0].shape) or forward(*args))
        rng = np.random.default_rng(3)
        fits = [(rng.standard_normal((n, 4)), rng.integers(0, 3, size=n)) for n in (30, 25)]
        models = NeuralNetwork.fit_many(
            [NeuralNetwork(hidden=5, epochs=epochs, seed=2) for _ in fits], *zip(*fits))
        assert calls == [(2, 30, 4)]
        if epochs == 0:  # no step: the initial parameters
            init = NeuralNetwork(hidden=5, seed=2)
            init.init_params(4)
            for model in models:
                for name in ("W1", "b1", "W2", "b2"):
                    assert getattr(model, name).tobytes() == getattr(init, name).tobytes()


class TestFitManySharedHyperparameters:
    @pytest.mark.parametrize("family", [LinearSVM, NeuralNetwork])
    def test_different_epochs_rejected(self, family):
        """Fits trained together share one epoch schedule, so both lockstep
        trainers refuse models whose epoch counts differ."""
        rng = np.random.default_rng(4)
        fits = [(rng.standard_normal((n, 3)), rng.integers(0, 3, size=n)) for n in (12, 9)]
        models = [family(epochs=e, seed=1) for e in (3, 4)]
        with pytest.raises(ValueError, match="trained together must share"):
            family.fit_many(models, *zip(*fits))


class TestDeterminismAndInvariance:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical_predictions(self, blobs, algorithm):
        m1 = train(algorithm, blobs, seed=11)
        m2 = train(algorithm, blobs, seed=11)
        np.testing.assert_array_equal(m1.predict(blobs.features), m2.predict(blobs.features))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_affine_feature_rescaling_invariance(self, blobs, algorithm):
        scaled = LabeledDataset(
            features=blobs.features * 3.0 + 7.0,
            labels=blobs.labels,
            feature_names=list(blobs.feature_names),
        )
        m1 = train(algorithm, blobs, seed=2)
        m2 = train(algorithm, scaled, seed=2)
        p1 = m1.predict(blobs.features)
        p2 = m2.predict(scaled.features)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_label_permutation_equivariance(self, blobs, algorithm):
        perm = {0: 2, 1: 0, 2: 1}
        permuted = LabeledDataset(
            features=blobs.features,
            labels=np.array([perm[int(l)] for l in blobs.labels]),
            feature_names=list(blobs.feature_names),
        )
        p1 = train(algorithm, blobs, seed=4).predict(blobs.features)
        p2 = train(algorithm, permuted, seed=4).predict(blobs.features)
        np.testing.assert_array_equal(np.array([perm[int(l)] for l in p1]), p2)
