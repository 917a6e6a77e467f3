"""Array and lockstep classifier code checked against the loop versions it
replaced, which live on here as oracles, and the in-place lockstep trainers
checked bit for bit against the first lockstep code.  The all-features tree
split search is checked against the per-feature search, the column-wise
softmax against the reductions over the class axis, and the row-at-a-time
kNN distances against the (queries x rows x features) tensor code.

Trees and kNN outputs must be equal, SVM weights bit-identical, and NN
weights and loss curves equal when every mini-batch is full.  A short last
batch is zero-padded in the lockstep trainer, which can move the
floating-point summation order of its gradient sums, so there the NN is held
to 1e-12.
"""

import json

import numpy as np
import pytest

from voicepd.classifiers import (
    ALGORITHMS,
    DecisionTree,
    KNearestNeighbors,
    LinearSVM,
    NeuralNetwork,
    _forward,
    _gini,
    train,
)
from voicepd.data import LabeledDataset
from voicepd.evaluation import (
    ConfusionMatrix,
    evaluate,
    kfold,
    metrics,
    run_experiment,
    stratified_split,
)
from voicepd.selection import chi2_scores, select_top_k
from voicepd.synth import gen_blobs

NN_SHORT_BATCH_TOL = 1e-12


# --- oracles: the loop implementations ------------------------------------

def oracle_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def oracle_tree(X, y, depth, max_depth, min_leaf):
    """Exhaustive CART: every midpoint of every feature, first best wins."""
    counts = np.bincount(y, minlength=3)
    node = {"counts": counts.tolist()}
    if depth >= max_depth or len(np.unique(y)) <= 1 or len(y) < 2 * min_leaf:
        return node
    best = None
    for j in range(X.shape[1]):
        col = X[:, j]
        uniq = np.unique(col)
        if len(uniq) < 2:
            continue
        for t in (uniq[:-1] + uniq[1:]) / 2.0:
            left = col <= t
            nl = int(np.count_nonzero(left))
            if nl < min_leaf or len(y) - nl < min_leaf:
                continue
            gl = oracle_gini(np.bincount(y[left], minlength=3))
            gr = oracle_gini(np.bincount(y[~left], minlength=3))
            imp = (nl * gl + (len(y) - nl) * gr) / len(y)
            if best is None or imp < best[0] - 1e-15:
                best = (imp, j, float(t))
    if best is None or best[0] >= oracle_gini(counts) - 1e-15:
        return node
    _, j, t = best
    left = X[:, j] <= t
    node["feature"] = j
    node["threshold"] = t
    node["left"] = oracle_tree(X[left], y[left], depth + 1, max_depth, min_leaf)
    node["right"] = oracle_tree(X[~left], y[~left], depth + 1, max_depth, min_leaf)
    return node


def oracle_best_split(X, y, counts, min_leaf):
    """The per-feature sort-and-scan search: each feature sorted on its own,
    candidates found with searchsorted, records scanned feature by feature."""
    n = len(y)
    low = max(min_leaf, 1)
    onehot = np.eye(3, dtype=np.int64)[y]
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        cut = np.flatnonzero(xs[1:] > xs[:-1])
        thresholds = (xs[cut] + xs[cut + 1]) / 2.0
        nl = np.searchsorted(xs, thresholds, side="right")
        keep = (nl >= low) & (n - nl >= low)
        thresholds, nl = thresholds[keep], nl[keep]
        if len(nl) == 0:
            continue
        left = np.cumsum(onehot[order], axis=0)[nl - 1]
        imp = (nl * _gini(left) + (n - nl) * _gini(counts - left)) / n
        records = np.flatnonzero(imp < np.minimum.accumulate(np.r_[np.inf, imp[:-1]]))
        for i in records:
            if best is None or imp[i] < best[0] - 1e-15:
                best = (float(imp[i]), j, float(thresholds[i]))
    return best


def oracle_svm(X, y, lam, epochs, lr0, seed):
    """One-vs-rest machines trained one after another, one sample per step."""
    classes = np.unique(y)
    n, d = X.shape
    W, b = np.zeros((len(classes), d)), np.zeros(len(classes))
    for ci, c in enumerate(classes):
        target = np.where(y == c, 1.0, -1.0)
        rng = np.random.default_rng(seed + ci)
        w, bias, t = np.zeros(d), 0.0, 0
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = lr0 / (1.0 + lr0 * lam * t)
                if target[i] * (X[i] @ w + bias) < 1.0:
                    w = (1.0 - eta * lam) * w + eta * target[i] * X[i]
                    bias += eta * target[i]
                else:
                    w = (1.0 - eta * lam) * w
        W[ci], b[ci] = w, bias
    return W, b


def _oracle_forward(X, p):
    z1 = X @ p["W1"] + p["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p["W2"] + p["b2"]
    z2 = z2 - z2.max(axis=1, keepdims=True)
    e = np.exp(z2)
    return z1, a1, e / e.sum(axis=1, keepdims=True)


def _oracle_loss_and_gradients(X, y, p):
    n = len(X)
    z1, a1, probs = _oracle_forward(X, p)
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
    delta2 = probs.copy()
    delta2[np.arange(n), y] -= 1.0
    delta2 /= n
    grads = {"W2": a1.T @ delta2, "b2": delta2.sum(axis=0)}
    delta1 = (delta2 @ p["W2"].T) * (z1 > 0.0)
    grads["W1"] = X.T @ delta1
    grads["b1"] = delta1.sum(axis=0)
    return loss, grads


def oracle_nn(X, y, hidden, lr, epochs, batch_size, seed):
    """One network, one mini-batch per step; returns (params, loss history)."""
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    lim1 = np.sqrt(6.0 / (d + hidden))
    lim2 = np.sqrt(6.0 / (hidden + 3))
    p = {"W1": rng.uniform(-lim1, lim1, size=(d, hidden)), "b1": np.zeros(hidden)}
    p["W2"] = rng.uniform(-lim2, lim2, size=(hidden, 3))
    p["b2"] = np.zeros(3)
    history = []
    for _ in range(epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            idx = perm[start:start + batch_size]
            _, grads = _oracle_loss_and_gradients(X[idx], y[idx], p)
            for name in ("W1", "b1", "W2", "b2"):
                p[name] -= lr * grads[name]
        history.append(_oracle_loss_and_gradients(X, y, p)[0])
    return p, history


def oracle_lockstep_svm(models, Xs, ys):
    """The first lockstep trainer: every machine takes step t together, and
    a step works on fresh arrays, with np.where choosing between the
    shrunk and the updated weights."""
    lam, lr0 = models[0].lam, 1.0
    machines = []  # (total steps, model index, class index, row count)
    for mi, (model, X, y) in enumerate(zip(models, Xs, ys)):
        model.classes_ = np.unique(y)
        model.W = np.zeros((len(model.classes_), X.shape[1]))
        model.b = np.zeros(len(model.classes_))
        machines += [(model.epochs * len(X), mi, ci, len(X))
                     for ci in range(len(model.classes_))]
    machines.sort(key=lambda m: -m[0])
    totals = np.array([m[0] for m in machines])
    n_max = max(len(X) for X in Xs)
    X_pad = np.zeros((len(Xs), n_max, Xs[0].shape[1]))
    targets = np.zeros((len(machines), n_max))
    for mi, X in enumerate(Xs):
        X_pad[mi, : len(X)] = X
    for k, (_, mi, ci, n) in enumerate(machines):
        targets[k, :n] = np.where(np.asarray(ys[mi]) == models[mi].classes_[ci], 1.0, -1.0)
    owner = np.array([m[1] for m in machines])
    rngs = [np.random.default_rng(models[mi].seed + ci) for _, mi, ci, _ in machines]
    pending = [np.empty(0, dtype=np.int64) for _ in machines]
    W = np.zeros((len(machines), X_pad.shape[2]))
    b = np.zeros(len(machines))
    for start in range(0, int(totals[0]), n_max):
        steps = np.arange(start, min(start + n_max, int(totals[0])))
        schedule = np.zeros((len(steps), len(machines)), dtype=np.int64)
        for k, (total, _, _, n) in enumerate(machines):
            while len(pending[k]) < len(steps) and start + len(pending[k]) < total:
                pending[k] = np.concatenate([pending[k], rngs[k].permutation(n)])
            take = pending[k][: len(steps)]
            schedule[: len(take), k] = take
            pending[k] = pending[k][len(take):]
        eta = lr0 / (1.0 + lr0 * lam * (steps + 1.0))
        decay = 1.0 - eta * lam
        x_steps = X_pad[owner, schedule]
        t_steps = targets[np.arange(len(machines)), schedule]
        active = np.count_nonzero(totals > steps[:, None], axis=1)
        for s, a in enumerate(active):
            x, target, w = x_steps[s, :a], t_steps[s, :a], W[:a]
            hit = target * (np.vecdot(x, w) + b[:a]) < 1.0
            gain = eta[s] * target
            shrunk = decay[s] * w
            W[:a] = np.where(hit[:, None], shrunk + gain[:, None] * x, shrunk)
            b[:a] += np.where(hit, gain, 0.0)
    for k, (_, mi, ci, _) in enumerate(machines):
        models[mi].W[ci] = W[k]
        models[mi].b[ci] = b[k]
    return models


def _lockstep_forward(X, W1, b1, W2, b2):
    z1 = X @ W1 + b1[..., None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ W2 + b2[..., None, :]
    z2 = z2 - z2.max(axis=-1, keepdims=True)
    e = np.exp(z2)
    return z1, a1, e / e.sum(axis=-1, keepdims=True)


def _lockstep_gradients(X, z1, a1, delta2, W2):
    delta1 = (delta2 @ np.swapaxes(W2, -1, -2)) * (z1 > 0.0)
    return {
        "W1": np.swapaxes(X, -1, -2) @ delta1,
        "b1": delta1.sum(axis=-2),
        "W2": np.swapaxes(a1, -1, -2) @ delta2,
        "b2": delta2.sum(axis=-2),
    }


def oracle_lockstep_nn(models, Xs, ys):
    """The first lockstep trainer: batch k of every network is one stacked
    step on freshly gathered arrays, always masked and divided per network."""
    order = sorted(range(len(models)), key=lambda i: -len(Xs[i]))
    nets = [models[i] for i in order]
    n = np.array([len(Xs[i]) for i in order])
    lr, epochs, size = nets[0].lr, nets[0].epochs, nets[0].batch_size
    M, n_max, d = len(nets), int(n[0]), Xs[0].shape[1]
    pad = n_max
    X_pad = np.zeros((M, n_max + 1, d))
    onehot = np.zeros((M, n_max + 1, 3))
    labels = np.zeros((M, n_max), dtype=np.int64)
    rngs = []
    for k, (i, net) in enumerate(zip(order, nets)):
        y = np.asarray(ys[i], dtype=np.int64)
        X_pad[k, : n[k]] = Xs[i]
        onehot[k, np.arange(n[k]), y] = 1.0
        labels[k, : n[k]] = y
        rngs.append(np.random.default_rng(net.seed))
        net.init_params(d, rngs[-1])
        net.loss_history = []
    W1, b1, W2, b2 = (np.stack([getattr(net, p) for net in nets])
                      for p in ("W1", "b1", "W2", "b2"))
    n_batches = -(-n // size)
    active = np.count_nonzero(n_batches > np.arange(n_batches[0])[:, None], axis=1)
    real = np.clip(n[:, None] - size * np.arange(n_batches[0]), 1, size)
    rows = np.arange(M)[:, None]
    schedule = np.full((M, n_batches[0] * size), pad)
    batches = schedule.reshape(M, n_batches[0], size)
    for _ in range(epochs):
        for k, rng in enumerate(rngs):
            schedule[k, : n[k]] = rng.permutation(n[k])
        for step, a in enumerate(active):
            idx = batches[:a, step]
            xb = X_pad[rows[:a], idx]
            z1, a1, probs = _lockstep_forward(xb, W1[:a], b1[:a], W2[:a], b2[:a])
            delta2 = probs * (idx != pad)[:, :, None] - onehot[rows[:a], idx]
            delta2 /= real[:a, step, None, None]
            grads = _lockstep_gradients(xb, z1, a1, delta2, W2[:a])
            W1[:a] -= lr * grads["W1"]
            b1[:a] -= lr * grads["b1"]
            W2[:a] -= lr * grads["W2"]
            b2[:a] -= lr * grads["b2"]
        _, _, probs = _lockstep_forward(X_pad[:, :n_max], W1, b1, W2, b2)
        p_true = probs[rows, np.arange(n_max), labels]
        for k, net in enumerate(nets):
            net.loss_history.append(float(-np.mean(np.log(p_true[k, : n[k]] + 1e-300))))
    for k, net in enumerate(nets):
        net.W1, net.b1, net.W2, net.b2 = W1[k].copy(), b1[k].copy(), W2[k].copy(), b2[k].copy()
    return models


def oracle_knn(Xtr, ytr, k, Xq):
    """(predictions, scores) with one distance loop per query row."""
    pred, scores = np.zeros(len(Xq), dtype=np.int64), np.zeros((len(Xq), 3))
    for i, x in enumerate(Xq):
        dists = np.sqrt(np.sum((Xtr - x) ** 2, axis=1))
        order = np.argsort(dists, kind="stable")[:k]
        labels = ytr[order]
        for c in range(3):
            scores[i, c] = np.count_nonzero(labels == c) / k
        counts = np.bincount(labels, minlength=3)
        best = np.flatnonzero(counts == counts.max())
        if len(best) == 1:
            pred[i] = best[0]
        else:
            sums = {c: float(dists[order][labels == c].sum()) for c in best}
            pred[i] = min(best, key=lambda c: (sums[c], c))
    return pred, scores


def oracle_broadcast_knn(Xtr, ytr, k, Xq):
    """(predictions, distances) from one (queries x rows x features)
    difference tensor, the array kNN that preceded the row-at-a-time one."""
    diff = Xtr[None, :, :] - np.asarray(Xq)[:, None, :]
    dists = np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    labels = ytr[order]
    counts = np.stack([np.count_nonzero(labels == c, axis=1) for c in range(3)], axis=1)
    out = np.argmax(counts, axis=1)
    tied = np.count_nonzero(counts == counts.max(axis=1, keepdims=True), axis=1) > 1
    for i in np.flatnonzero(tied):
        best = np.flatnonzero(counts[i] == counts[i].max())
        near, labels = dists[i, order[i]], ytr[order[i]]
        sums = {c: float(near[labels == c].sum()) for c in best}
        out[i] = min(best, key=lambda c: (sums[c], c))
    return out, dists


def oracle_run_experiment(dataset, algorithm, seed, test_fraction, cv_k,
                          hyperparams, bins, top_k):
    """The report built with one `train` call per fit, fold after fold."""

    def fit_and_score(train_ds, test_ds):
        if top_k is not None and top_k < dataset.n_features:
            mask = select_top_k(chi2_scores(train_ds, bins=bins), top_k)
            train_ds, test_ds = train_ds.select_features(mask), test_ds.select_features(mask)
        return evaluate(train(algorithm, train_ds, hyperparams, seed=seed), test_ds)

    train_idx, test_idx = stratified_split(dataset, test_fraction, seed)
    train_ds, test_ds = dataset.subset(train_idx), dataset.subset(test_idx)
    fold_cms = [fit_and_score(train_ds.subset(tr), train_ds.subset(te))
                for tr, te in kfold(train_ds, cv_k, seed)]
    pooled = ConfusionMatrix()
    for cm in fold_cms:
        pooled = ConfusionMatrix(pooled.counts + cm.counts)
    holdout_cm = fit_and_score(train_ds, test_ds)
    return {
        "model": algorithm,
        "seed": seed,
        "holdout": metrics(holdout_cm, algorithm, "holdout").to_dict(),
        "holdout_confusion_matrix": holdout_cm.to_lists(),
        "cv": {
            "pooled": metrics(pooled, algorithm, "pooled").to_dict(),
            "pooled_confusion_matrix": pooled.to_lists(),
            "folds": [metrics(cm, algorithm, str(f)).to_dict() for f, cm in enumerate(fold_cms)],
            "fold_confusion_matrices": [cm.to_lists() for cm in fold_cms],
        },
    }


# --- data -------------------------------------------------------------------

def tree_data(seed, n=60, d=5):
    """Coarsely rounded values (many duplicates) plus one constant column."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, size=n)
    X = np.round(rng.standard_normal((n, d)) + 0.8 * y[:, None], 1)
    X[:, 2] = 1.5
    return X, y


def uneven_fits(sizes=(61, 62, 68), d=6, seed=0):
    """Overlapping three-class data sets of the given row counts."""
    rng = np.random.default_rng(seed)
    fits = []
    for n in sizes:
        y = rng.integers(0, 3, size=n)
        X = rng.standard_normal((n, d)) + 0.7 * y[:, None]
        fits.append((X, y))
    return fits


def assert_bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


# --- tests ------------------------------------------------------------------

class TestTreeOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_depth,min_leaf", [(8, 1), (8, 2), (6, 3), (0, 1), (1, 1), (1, 3)])
    def test_root_equals_exhaustive_search(self, seed, max_depth, min_leaf):
        X, y = tree_data(seed)
        tree = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(X, y)
        assert tree.root == oracle_tree(X, y, 0, max_depth, min_leaf)

    def test_single_class(self):
        X, _ = tree_data(7)
        y = np.full(len(X), 2)
        assert DecisionTree().fit(X, y).root == oracle_tree(X, y, 0, 8, 1) == {"counts": [0, 0, 60]}

    def test_blobs_default_depth(self):
        ds = gen_blobs((22, 28, 30), separation=1.0, seed=3)
        tree = DecisionTree().fit(ds.features, ds.labels)
        assert tree.root == oracle_tree(ds.features, ds.labels, 0, 8, 1)

    @pytest.mark.parametrize("seed", [*range(30), 529])
    def test_near_ties_on_integer_grid(self, seed):
        # equal impurities reached through different counts round apart by
        # a few ulps, where only the 1e-15 margin decides: seed 21 needs the
        # margin, seed 529 a chain of near-ties within one feature
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 40))
        y = rng.integers(0, 3, size=n)
        X = rng.integers(0, 6, size=(n, 3)).astype(float)
        assert DecisionTree(max_depth=2).fit(X, y).root == oracle_tree(X, y, 0, 2, 1)

    def test_midpoint_rounding_to_upper_value(self):
        # adjacent doubles whose midpoint rounds (to even) up to the upper one
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        X = np.array([[a], [a], [b], [b], [b + 1.0]])
        y = np.array([0, 0, 1, 1, 2])
        tree = DecisionTree().fit(X, y)
        assert tree.root == oracle_tree(X, y, 0, 8, 1)


def assert_best_splits_equal_oracle(X, y, max_depth=8, min_leaf=1):
    """Grow a tree, checking the split search against the per-feature one at
    every node; return the number of nodes searched."""
    tree = DecisionTree(max_depth=max_depth, min_leaf=min_leaf)
    search, searched = tree._best_split, []

    def checked(X, y, counts):
        best = search(X, y, counts)
        assert best == oracle_best_split(X, y, counts, min_leaf)
        assert best is None or type(best[1]) is int
        searched.append(best)
        return best

    tree._best_split = checked
    tree.fit(X, y)
    return len(searched)


class TestBestSplitOracle:
    """The all-features split search against the per-feature one it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    def test_tree_data(self, seed, min_leaf):
        X, y = tree_data(seed)
        assert assert_best_splits_equal_oracle(X, y, min_leaf=min_leaf) > 1

    @pytest.mark.parametrize("seed", [*range(30), 529])
    def test_near_ties_on_integer_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 40))
        y = rng.integers(0, 3, size=n)
        X = rng.integers(0, 6, size=(n, 3)).astype(float)
        assert assert_best_splits_equal_oracle(X, y) >= 1

    def test_overlapping_blobs(self):
        # the evaluate-large shape: 340 rows, 8 features, overlapping classes
        ds = gen_blobs((113, 113, 114), dims=8, separation=2.0, sigma=1.0, seed=6)
        assert assert_best_splits_equal_oracle(ds.features, ds.labels) > 20

    @pytest.mark.parametrize("seed", range(5))
    def test_non_finite_and_overflowing_values(self, seed):
        # midpoints that overflow to +-inf or are inf - inf, and NaN rows
        rng = np.random.default_rng(seed)
        values = [-1.7e308, -1.6e308, -1.0, 0.0, 1.0, 1.6e308, 1.7e308, np.inf, -np.inf, np.nan]
        X, y = rng.choice(values, size=(40, 3)), rng.integers(0, 3, size=40)
        with np.errstate(over="ignore", invalid="ignore"):
            assert assert_best_splits_equal_oracle(X, y) > 1


class TestForwardOracle:
    """`_forward`, whose softmax works in place, against the first lockstep
    trainer's forward pass, which builds a new array at each step."""

    def _check(self, X, W1, b1, W2, b2):
        for got, want in zip(_forward(X, W1, b1, W2, b2), _lockstep_forward(X, W1, b1, W2, b2)):
            assert_bit_equal(got, want)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_random(self, stacked):
        rng = np.random.default_rng(11)
        lead = (4,) if stacked else ()
        self._check(rng.standard_normal((*lead, 50, 6)), rng.standard_normal((*lead, 6, 9)),
                    rng.standard_normal((*lead, 9)), 3.0 * rng.standard_normal((*lead, 9, 3)),
                    rng.standard_normal((*lead, 3)))

    def test_tied_logits(self):
        rng = np.random.default_rng(12)
        X, W1, b1 = rng.standard_normal((40, 5)), rng.standard_normal((5, 7)), np.zeros(7)
        col = rng.standard_normal((7, 1))
        # every pair of classes tied, then all three
        for W2 in (np.hstack([col, col, 2 * col]), np.hstack([col, 2 * col, col]),
                   np.hstack([2 * col, col, col]), np.hstack([col, col, col]), np.zeros((7, 3))):
            self._check(X, W1, b1, W2, np.zeros(3))

    @pytest.mark.parametrize("b2", [(700.0, -700.0, 699.5), (-700.0, -699.0, 700.0),
                                    (705.0, 705.0, -705.0)])
    def test_logits_near_exp_limits(self, b2):
        rng = np.random.default_rng(13)
        self._check(rng.standard_normal((3, 30, 4)), rng.standard_normal((3, 4, 6)),
                    rng.standard_normal((3, 6)), rng.standard_normal((3, 6, 3)),
                    np.tile(b2, (3, 1)))


class TestKnnOracle:
    @pytest.mark.parametrize("k", [1, 2, 4, 5, 9])
    def test_predictions_and_scores_equal_loops(self, k):
        rng = np.random.default_rng(k)
        # small integer grid: many equal distances and split votes
        Xtr = rng.integers(0, 4, size=(40, 3)).astype(float)
        ytr = rng.integers(0, 3, size=40)
        Xq = rng.integers(0, 4, size=(30, 3)).astype(float)
        knn = KNearestNeighbors(k=k).fit(Xtr, ytr)
        pred, _ = oracle_knn(Xtr, ytr, k, Xq)
        np.testing.assert_array_equal(knn.predict(Xq), pred)
        broadcast_pred, dists = oracle_broadcast_knn(Xtr, ytr, k, Xq)
        np.testing.assert_array_equal(knn.predict(Xq), broadcast_pred)
        assert_bit_equal(knn._distances(Xq), dists)

    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_nineteen_features_equal_broadcast(self, k):
        # the pipeline's shape: z-scored overlapping classes, all 19 features
        rng = np.random.default_rng(19 + k)
        ytr = rng.integers(0, 3, size=340)
        Xtr = rng.standard_normal((340, 19)) + 0.5 * ytr[:, None]
        Xq = rng.standard_normal((60, 19)) + 0.5 * rng.integers(0, 3, size=60)[:, None]
        knn = KNearestNeighbors(k=k).fit(Xtr, ytr)
        pred, dists = oracle_broadcast_knn(Xtr, ytr, k, Xq)
        np.testing.assert_array_equal(knn.predict(Xq), pred)
        assert_bit_equal(knn._distances(Xq), dists)


class TestSvmOracle:
    def test_lockstep_bit_identical_on_uneven_folds(self):
        fits = uneven_fits()
        # one fit without class 1 gives it two machines instead of three
        X, y = fits[1]
        fits[1] = (X[y != 1], y[y != 1])
        models = [LinearSVM(epochs=15, seed=4) for _ in fits]
        LinearSVM.fit_many(models, [X for X, _ in fits], [y for _, y in fits])
        for model, (X, y) in zip(models, fits):
            W, b = oracle_svm(X, y, 1e-3, 15, 1.0, 4)
            assert_bit_equal(model.W, W)
            assert_bit_equal(model.b, b)

    def test_single_fit_matches_loop(self):
        (X, y), = uneven_fits(sizes=(50,), seed=2)
        model = LinearSVM(lam=1e-2, epochs=10, seed=9).fit(X, y)
        W, b = oracle_svm(X, y, 1e-2, 10, 1.0, 9)
        assert_bit_equal(model.W, W)
        assert_bit_equal(model.b, b)


class TestNeuralNetworkOracle:
    def _check(self, sizes, batch_size, tol):
        """Parameters after every epoch count up to 12, and the loss over all
        training rows computed from them, against the per-network loop."""
        fits = uneven_fits(sizes=sizes, seed=1)
        Xs, ys = [X for X, _ in fits], [y for _, y in fits]
        for epochs in range(1, 13):
            models = [NeuralNetwork(hidden=7, epochs=epochs, batch_size=batch_size, seed=3)
                      for _ in fits]
            NeuralNetwork.fit_many(models, Xs, ys)
            for model, (X, y) in zip(models, fits):
                params, history = oracle_nn(X, y, 7, 0.01, epochs, batch_size, 3)
                got = {name: getattr(model, name) for name in params}
                for name, value in params.items():
                    np.testing.assert_allclose(got[name], value, rtol=0, atol=tol)
                loss = _oracle_loss_and_gradients(X, y, got)[0]
                np.testing.assert_allclose(loss, history[-1], rtol=0, atol=tol)

    def test_full_batches_exact(self):
        self._check((64, 72, 80), 8, 0.0)

    def test_short_batches_within_tolerance(self):
        self._check((61, 62, 68), 8, NN_SHORT_BATCH_TOL)


def lockstep_cases():
    """(name, fits) of the shapes the lockstep trainers must match bit for bit."""
    uneven = uneven_fits()
    X, y = uneven[1]
    two_class = [(X[y != 1], y[y != 1])]
    largest_first = uneven_fits(sizes=(80, 33, 61), seed=7)
    X2, y2 = largest_first[2]
    return {
        "uneven": uneven,
        "full_batches": uneven_fits(sizes=(64, 72, 80), seed=1),
        "two_class": two_class,
        "with_two_class": [uneven[0], two_class[0], uneven[2]],
        # the largest fit first and sizes batches apart, with a two-class fit
        # (classes 0 and 2) last: no fit's result depends on where it is listed
        "largest_first": [*largest_first[:2], (X2, np.where(y2 == 1, 2, y2))],
        # evaluate-large: five 272-row folds with full batches of 8 and a
        # 340-row holdout fit whose last batch has 4 rows
        "evaluate_large": uneven_fits(sizes=(272,) * 5 + (340,), d=8, seed=6),
        # an epoch of three 128-step chunks: the 70-row fit idles through the
        # last two whole, and the 129-row fit's epoch ends one row past the first
        "chunk_edges": uneven_fits(sizes=(300, 70, 129), seed=2),
    }


class TestLockstepOracle:
    """The trainers against the first lockstep code, on the same shapes."""

    @pytest.mark.parametrize("case", list(lockstep_cases()))
    def test_svm_bit_identical(self, case):
        fits = lockstep_cases()[case]
        Xs, ys = [X for X, _ in fits], [y for _, y in fits]
        epochs = 2 if case == "evaluate_large" else 12
        models = [LinearSVM(epochs=epochs, seed=4) for _ in fits]
        expected = [LinearSVM(epochs=epochs, seed=4) for _ in fits]
        LinearSVM.fit_many(models, Xs, ys)
        oracle_lockstep_svm(expected, Xs, ys)
        for model, want in zip(models, expected):
            assert_bit_equal(model.W, want.W)
            assert_bit_equal(model.b, want.b)

    @pytest.mark.parametrize("case", list(lockstep_cases()))
    def test_nn_bit_identical(self, case):
        fits = lockstep_cases()[case]
        Xs, ys = [X for X, _ in fits], [y for _, y in fits]
        # every epoch count up to the last: a fit of e epochs has the
        # parameters a longer fit had after epoch e
        for epochs in range(1, 4 if case == "evaluate_large" else 13):
            make = lambda: NeuralNetwork(hidden=7, epochs=epochs, batch_size=8, seed=3)
            models, expected = [make() for _ in fits], [make() for _ in fits]
            NeuralNetwork.fit_many(models, Xs, ys)
            oracle_lockstep_nn(expected, Xs, ys)
            for model, want in zip(models, expected):
                for name in ("W1", "b1", "W2", "b2"):
                    assert_bit_equal(getattr(model, name), getattr(want, name))


class TestBatchIndependence:
    @pytest.mark.parametrize("family", [LinearSVM, NeuralNetwork])
    def test_alone_equals_beside_others(self, family):
        fits = uneven_fits(sizes=(33, 61, 47), seed=5)
        make = (lambda s: LinearSVM(epochs=8, seed=s)) if family is LinearSVM else \
            (lambda s: NeuralNetwork(hidden=5, epochs=8, batch_size=6, seed=s))
        together = [make(s) for s in (0, 1, 2)]
        family.fit_many(together, [X for X, _ in fits], [y for _, y in fits])
        names = ("W", "b") if family is LinearSVM else ("W1", "b1", "W2", "b2")
        for seed, model, (X, y) in zip((0, 1, 2), together, fits):
            alone = make(seed).fit(X, y)
            for name in names:
                assert_bit_equal(getattr(model, name), getattr(alone, name))

    def test_nn_batch_of_one(self):
        # every batch is full, so only the networks that have run out of
        # rows step on padding, and their error must still divide to exactly 0
        fits = uneven_fits(sizes=(9, 14, 11), seed=5)
        make = lambda: NeuralNetwork(hidden=5, epochs=3, batch_size=1, seed=2)
        together = [make() for _ in fits]
        NeuralNetwork.fit_many(together, [X for X, _ in fits], [y for _, y in fits])
        for model, (X, y) in zip(together, fits):
            alone = make().fit(X, y)
            for name in ("W1", "b1", "W2", "b2"):
                assert_bit_equal(getattr(model, name), getattr(alone, name))


class TestRunExperimentOracle:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_report_byte_identical(self, algorithm):
        ds = gen_blobs((14, 17, 19), separation=1.5, seed=8)
        ds = LabeledDataset(ds.features[:, :6], ds.labels, list(ds.feature_names[:6]))
        hyperparams = {"svm": {"epochs": 6}, "nn": {"epochs": 6, "batch_size": 5}}.get(algorithm)
        args = dict(seed=2, test_fraction=0.2, cv_k=3, hyperparams=hyperparams, bins=5, top_k=4)
        report = run_experiment(ds, algorithm, **args)
        expected = oracle_run_experiment(ds, algorithm, **args)
        assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)
