"""Five classifier families, implemented from scratch on numpy.

All models consume z-scored features (the TrainedModel wrapper owns the
fitted Standardizer) and are deterministic given (data, hyperparams, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, Standardizer
from .errors import DataError


# --- k-nearest neighbors ---------------------------------------------------

class KNearestNeighbors:
    def __init__(self, k: int = 5):
        self.k = k
        self.X = None
        self.y = None
        self.classes_ = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        if len(X) == 0:
            raise DataError("cannot fit knn on an empty dataset")
        if self.k > len(X):
            import warnings
            warnings.warn(f"knn k={self.k} > n={len(X)}; clamping to n")
            self.k = len(X)
        self.X = np.array(X)
        self.y = np.array(y)
        self.classes_ = np.unique(y)
        return self

    def _votes(self, X: np.ndarray):
        """One distance matrix for the whole query: distances, each query's k
        nearest rows in stable-argsort order, and the per-class vote counts."""
        diff = self.X[None, :, :] - np.asarray(X)[:, None, :]
        dists = np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
        order = np.argsort(dists, axis=1, kind="stable")[:, : self.k]
        labels = self.y[order]
        counts = np.stack([np.count_nonzero(labels == c, axis=1) for c in range(3)], axis=1)
        return dists, order, counts

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return self._votes(X)[2] / self.k

    def predict(self, X: np.ndarray) -> np.ndarray:
        dists, order, counts = self._votes(X)
        out = np.argmax(counts, axis=1)
        tied = np.count_nonzero(counts == counts.max(axis=1, keepdims=True), axis=1) > 1
        for i in np.flatnonzero(tied):
            # break vote ties by smaller summed neighbor distance, then lower label
            best = np.flatnonzero(counts[i] == counts[i].max())
            near, labels = dists[i, order[i]], self.y[order[i]]
            sums = {c: float(near[labels == c].sum()) for c in best}
            out[i] = min(best, key=lambda c: (sums[c], c))
        return out


# --- CART decision tree ----------------------------------------------------

def _gini(counts: np.ndarray):
    """Gini impurity of a class-count vector, or of each row of a count table."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p * p).sum(axis=-1)


class DecisionTree:
    """CART with Gini impurity, threshold search over all midpoints."""

    def __init__(self, max_depth: int = 8, min_leaf: int = 1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        if len(X) == 0:
            raise DataError("cannot fit tree on an empty dataset")
        # depth-first with an explicit stack, so depth is not bound by recursion
        self.root = {}
        stack = [(self.root, np.asarray(X), np.asarray(y), 0)]
        while stack:
            node, X, y, depth = stack.pop()
            counts = np.bincount(y, minlength=3)
            node["counts"] = counts.tolist()
            if depth >= self.max_depth or len(np.unique(y)) <= 1 or len(y) < 2 * self.min_leaf:
                continue
            best = self._best_split(X, y, counts)
            if best is None or best[0] >= _gini(counts) - 1e-15:
                continue
            _, j, t = best
            left = X[:, j] <= t
            node["feature"] = j
            node["threshold"] = t
            node["left"], node["right"] = {}, {}
            stack.append((node["right"], X[~left], y[~left], depth + 1))
            stack.append((node["left"], X[left], y[left], depth + 1))
        return self

    def _best_split(self, X, y, counts):
        """(impurity, feature, threshold) of the best midpoint split, or None.

        All features are sorted at once, and the class counts left of every
        midpoint come from one cumulative sum.  Candidates are visited
        feature-first, threshold-ascending, and one replaces the best only
        when lower by more than 1e-15.
        """
        n = len(y)
        low = max(self.min_leaf, 1)  # a split with an empty side is no split
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0)
        j, c = np.nonzero((xs[1:] > xs[:-1]).T)
        lower, upper = xs[c, j], xs[c + 1, j]
        thresholds = (lower + upper) / 2.0
        # rows with value <= threshold; a midpoint that rounds up to the upper
        # value (or overflows) takes the count searchsorted gives
        nl = c + 1
        for i in np.flatnonzero(~((lower <= thresholds) & (thresholds < upper))):
            nl[i] = np.searchsorted(xs[:, j[i]], thresholds[i], side="right")
        keep = (nl >= low) & (n - nl >= low)
        j, thresholds, nl = j[keep], thresholds[keep], nl[keep]
        left = np.cumsum(np.eye(3, dtype=np.int64)[y][order], axis=0)[nl - 1, j]
        imp = (nl * _gini(left) + (n - nl) * _gini(counts - left)) / n
        # only a strict running minimum can beat the best by the margin
        best = None
        for i in np.flatnonzero(imp < np.minimum.accumulate(np.r_[np.inf, imp[:-1]])):
            if best is None or imp[i] < best[0] - 1e-15:
                best = (float(imp[i]), int(j[i]), float(thresholds[i]))
        return best

    def _leaf(self, x):
        node = self.root
        while "feature" in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((len(X), 3))
        for i, x in enumerate(np.asarray(X)):
            counts = np.array(self._leaf(x)["counts"], dtype=np.float64)
            scores[i] = counts / counts.sum()
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.predict_scores(X)
        return np.argmax(scores, axis=1)  # argmax takes the lower label on ties


# --- Gaussian naive Bayes --------------------------------------------------

class GaussianNaiveBayes:
    def __init__(self, var_floor: float = 1e-9):
        self.var_floor = var_floor
        self.classes_ = None
        self.priors = None
        self.means = None
        self.vars = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        if len(X) == 0:
            raise DataError("cannot fit naive Bayes on an empty dataset")
        X, y = np.asarray(X), np.asarray(y)
        self.classes_ = np.unique(y)
        self.priors = np.array([np.mean(y == c) for c in self.classes_])
        self.means = np.array([X[y == c].mean(axis=0) for c in self.classes_])
        self.vars = np.maximum(
            np.array([X[y == c].var(axis=0) for c in self.classes_]), self.var_floor
        )
        return self

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        out = np.zeros((len(X), len(self.classes_)))
        for ci in range(len(self.classes_)):
            ll = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.vars[ci])
                + (X - self.means[ci]) ** 2 / self.vars[ci],
                axis=1,
            )
            out[:, ci] = np.log(self.priors[ci]) + ll
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._log_joint(X), axis=1)]


# --- linear one-vs-rest SVM ------------------------------------------------

def _prefix_runs(active: np.ndarray) -> list[tuple[int, int, int]]:
    """(a, lo, hi) for each run of steps lo..hi-1 on which the first a of the
    models trained in lockstep are active; such a run shares one set of views."""
    cuts = [0, *(np.flatnonzero(np.diff(active)) + 1).tolist(), len(active)]
    return [(int(active[lo]), lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


class LinearSVM:
    """Primal sub-gradient descent on hinge loss, one binary machine per class."""

    def __init__(self, lam: float = 1e-3, epochs: int = 200, lr0: float = 1.0, seed: int = 0):
        self.lam = lam
        self.epochs = epochs
        self.lr0 = lr0
        self.seed = seed
        self.W = None  # (n_classes, n_features)
        self.b = None
        self.classes_ = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        return self.fit_many([self], [X], [y])[0]

    @staticmethod
    def fit_many(models: list["LinearSVM"], Xs: list, ys: list) -> list["LinearSVM"]:
        """Fit models[i] on (Xs[i], ys[i]), every one-vs-rest machine in lockstep.

        Machine ci of a model visits its rows in the order of per-epoch
        permutations from default_rng(seed + ci) and takes step t with
        eta = lr0 / (1 + lr0 * lam * t).  All machines take step t together,
        so a model's W and b are those it gets when trained alone.
        """
        lam, lr0 = models[0].lam, models[0].lr0
        if any((m.lam, m.lr0) != (lam, lr0) for m in models):
            raise ValueError("SVMs trained together must share lam and lr0")
        Xs = [np.asarray(X, dtype=np.float64) for X in Xs]
        if any(len(X) == 0 for X in Xs):
            raise DataError("cannot fit svm on an empty dataset")
        machines = []  # (total steps, model index, class index, row count)
        for mi, (model, X, y) in enumerate(zip(models, Xs, ys)):
            model.classes_ = np.unique(y)
            model.W = np.zeros((len(model.classes_), X.shape[1]))
            model.b = np.zeros(len(model.classes_))
            machines += [(model.epochs * len(X), mi, ci, len(X))
                         for ci in range(len(model.classes_))]
        # longest-running first, so the machines still stepping are a prefix
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
        margin = np.zeros(len(machines))
        hit = np.zeros((len(machines), 1), dtype=bool)
        # per active prefix: the machines' parameters, margins and hit flags
        views = {a: (W[:a], b[:a], margin[:a], hit[:a], hit[:a, 0])
                 for a in range(1, len(machines) + 1)}
        # steps run in chunks of one epoch of the largest fit, so the sample
        # schedule in memory stays O(machines x rows) whatever the epoch count
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
            # each step's gain eta * target and its hinge update gain * x
            g = eta[:, None] * t_steps
            gx = g[:, :, None] * x_steps
            active = np.count_nonzero(totals > steps[:, None], axis=1)
            for a, lo, hi in _prefix_runs(active):
                w, bias, m, hit_col, hit = views[a]
                run = (x_steps[lo:hi, :a], t_steps[lo:hi, :a], g[lo:hi, :a], gx[lo:hi, :a],
                       decay[lo:hi].tolist())
                for x, t, gain, grad, dec in zip(*run):
                    # vecdot takes each row's dot product in BLAS, as `x @ w` does
                    np.vecdot(x, w, out=m)
                    m += bias
                    m *= t
                    np.less(m, 1.0, out=hit)
                    w *= dec
                    np.add(w, grad, out=w, where=hit_col)
                    np.add(bias, gain, out=bias, where=hit)
        for k, (_, mi, ci, _) in enumerate(machines):
            models[mi].W[ci] = W[k]
            models[mi].b[ci] = b[k]
        return models

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        raw = np.asarray(X) @ self.W.T + self.b
        scores = np.full((len(X), 3), -np.inf)
        for ci, c in enumerate(self.classes_):
            scores[:, c] = raw[:, ci]
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_scores(X), axis=1)
# --- 3-layer neural network ------------------------------------------------

def _forward(X, W1, b1, W2, b2):
    """Hidden pre-activation, hidden activation and softmax output of one
    batch (n, d), or of stacked batches (M, n, d) with stacked parameters."""
    z1 = X @ W1 + b1[..., None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ W2 + b2[..., None, :]
    # max and sum over the three classes column by column, since a reduction
    # over a length-3 axis runs one numpy inner loop per row; the max is
    # exact, and (c0 + c1) + c2 is the order of numpy's sum
    c0, c1, c2 = np.moveaxis(z2, -1, 0)
    z2 -= np.maximum(np.maximum(c0, c1), c2)[..., None]
    np.exp(z2, out=z2)
    z2 /= ((c0 + c1) + c2)[..., None]
    return z1, a1, z2


class NeuralNetwork:
    """input -> hidden (ReLU) -> 3-way softmax, cross-entropy loss,
    mini-batch gradient descent, Glorot-uniform initialization."""

    def __init__(self, hidden: int = 16, lr: float = 0.01, epochs: int = 500,
                 batch_size: int = 8, seed: int = 0):
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.W1 = self.b1 = self.W2 = self.b2 = None
        self.n_classes = 3
        self.loss_history: list[float] = []

    def init_params(self, n_features: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(self.seed)
        lim1 = np.sqrt(6.0 / (n_features + self.hidden))
        lim2 = np.sqrt(6.0 / (self.hidden + self.n_classes))
        self.W1 = rng.uniform(-lim1, lim1, size=(n_features, self.hidden))
        self.b1 = np.zeros(self.hidden)
        self.W2 = rng.uniform(-lim2, lim2, size=(self.hidden, self.n_classes))
        self.b2 = np.zeros(self.n_classes)

    def loss_and_gradients(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy and analytic gradients on a batch."""
        X = np.asarray(X)
        n = len(X)
        z1, a1, probs = _forward(X, self.W1, self.b1, self.W2, self.b2)
        loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
        delta2 = probs.copy()
        delta2[np.arange(n), y] -= 1.0
        delta2 /= n
        delta1 = (delta2 @ self.W2.T) * (z1 > 0.0)
        return loss, {"W1": X.T @ delta1, "b1": delta1.sum(axis=0),
                      "W2": a1.T @ delta2, "b2": delta2.sum(axis=0)}

    def fit(self, X: np.ndarray, y: np.ndarray):
        return self.fit_many([self], [X], [y])[0]

    @staticmethod
    def fit_many(models: list["NeuralNetwork"], Xs: list, ys: list) -> list["NeuralNetwork"]:
        """Fit models[i] on (Xs[i], ys[i]), all networks in lockstep.

        Each network draws its initial weights, then one permutation per
        epoch, from default_rng(seed), as when trained alone.  Batch k of
        every network's epoch is one stacked (M, B, d) step.  A short last
        batch is zero-padded, masked out of the output error and divided by
        its real size, so a network's weights do not depend on the networks
        trained beside it.  Each epoch gathers its batches once, and a step
        works in buffers allocated once and updates the parameters in place
        through views, allocating no array.
        """
        if len({(m.hidden, m.lr, m.epochs, m.batch_size) for m in models}) > 1:
            raise ValueError("networks trained together must share hyperparameters")
        Xs = [np.asarray(X, dtype=np.float64) for X in Xs]
        if any(len(X) == 0 for X in Xs):
            raise DataError("cannot fit neural network on an empty dataset")
        # largest fit first, so the networks still stepping are a prefix
        order = sorted(range(len(models)), key=lambda i: -len(Xs[i]))
        nets = [models[i] for i in order]
        n = np.array([len(Xs[i]) for i in order])
        lr, epochs, size, h = nets[0].lr, nets[0].epochs, nets[0].batch_size, nets[0].hidden
        M, n_max, d = len(nets), int(n[0]), Xs[0].shape[1]
        pad = n_max  # row index of an all-zero input with an all-zero target
        X_pad = np.zeros((M, n_max + 1, d))
        onehot = np.zeros((M, n_max + 1, 3))
        labels = np.zeros((M, n_max), dtype=np.int64)
        # each network's W1, b1, W2, b2 are views into its row of P, and its
        # gradients views into the same places of G, so one step updates
        # every parameter with two calls
        shapes = ((d, h), (h,), (h, 3), (3,))
        bounds = np.cumsum([0, d * h, h, h * 3, 3]).tolist()
        P, G = np.zeros((2, M, bounds[-1]))
        W1, b1, W2, b2, *grads = (x[:, lo:hi].reshape(M, *s) for x in (P, G)
                                  for lo, hi, s in zip(bounds, bounds[1:], shapes))
        rngs = []
        for k, (i, net) in enumerate(zip(order, nets)):
            y = np.asarray(ys[i], dtype=np.int64)
            X_pad[k, : n[k]] = Xs[i]
            onehot[k, np.arange(n[k]), y] = 1.0
            labels[k, : n[k]] = y
            rngs.append(np.random.default_rng(net.seed))
            net.init_params(d, rngs[-1])
            net.loss_history = []
            W1[k], b1[k], W2[k], b2[k] = net.W1, net.b1, net.W2, net.b2
        n_batches = -(-n // size)
        active = np.count_nonzero(n_batches > np.arange(n_batches[0])[:, None], axis=1)
        # real rows in batch k of each network (1 where it has no batch k and idles)
        real = np.clip(n[:, None] - size * np.arange(n_batches[0]), 1, size)
        rows = np.arange(M)[:, None]
        schedule = np.full((M, n_batches[0] * size), pad)
        # (step, network, row) indices of one epoch's batches
        batches = schedule.reshape(M, n_batches[0], size).transpose(1, 0, 2)
        # step buffers: hidden activation, output error, hidden error, ReLU
        # mask, and each row's softmax max, then sum
        hid, delta2, delta1 = np.zeros((M, size, h)), np.zeros((M, size, 3)), np.zeros((M, size, h))
        relu, stat = np.zeros((M, size, h), dtype=bool), np.zeros((M, size))
        # per active prefix, the views a step works on: parameters with biases
        # shaped to add to a stacked batch, W2 and the hidden activation
        # transposed, and the output error's class columns
        views = {}
        for a in set(active.tolist()):
            w1, c1, w2, c2, g_w1, g_b1, g_w2, g_b2, hid_a, d2, d1, relu_a, stat_a = (
                x[:a] for x in (W1, b1, W2, b2, *grads, hid, delta2, delta1, relu, stat))
            views[a] = (P[:a], G[:a], w1, c1[:, None, :], w2, c2[:, None, :],
                        np.swapaxes(w2, -1, -2), g_w1, g_b1, g_w2, g_b2, hid_a,
                        np.swapaxes(hid_a, -1, -2), d2, *np.moveaxis(d2, -1, 0), d1, relu_a,
                        stat_a, stat_a[:, :, None])
        # only a step where some active network has a short batch needs the pad
        # mask and the per-network divisor: elsewhere p * 1.0 == p and
        # p / real == p / size, so skipping them leaves every bit as it was
        short = ((real.T < size) & (np.arange(M) < active[:, None])).any(axis=1).tolist()
        divisor = real.T[:, :, None, None]
        runs = _prefix_runs(active)
        # a diverging fit overflows; it is reported once, after the loop
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(epochs):
                for k, rng in enumerate(rngs):
                    schedule[k, : n[k]] = rng.permutation(n[k])
                xb_all = X_pad[rows.T[:, :, None], batches]
                onehot_all = onehot[rows.T[:, :, None], batches]
                keep_all = (batches != pad)[..., None]
                for a, lo, hi in runs:
                    (p, g, w1, c1_rows, w2, c2_rows, w2_t, g_w1, g_b1, g_w2, g_b2, hid_a, hid_t,
                     d2, d2_0, d2_1, d2_2, d1, relu_a, stat_a, stat_col) = views[a]
                    run = (xb_all[lo:hi, :a], np.swapaxes(xb_all[lo:hi, :a], -1, -2),
                           onehot_all[lo:hi, :a], keep_all[lo:hi, :a], divisor[lo:hi, :a],
                           short[lo:hi])
                    for xb, xb_t, target, keep, div, is_short in zip(*run):
                        # forward: hidden ReLU activation, then softmax probabilities
                        np.matmul(xb, w1, out=hid_a)
                        hid_a += c1_rows
                        np.maximum(hid_a, 0.0, out=hid_a)
                        np.matmul(hid_a, w2, out=d2)
                        d2 += c2_rows
                        np.maximum(d2_0, d2_1, out=stat_a)
                        np.maximum(stat_a, d2_2, out=stat_a)
                        d2 -= stat_col
                        np.exp(d2, out=d2)
                        np.add(d2_0, d2_1, out=stat_a)
                        stat_a += d2_2
                        d2 /= stat_col
                        # output error over the real rows, divided by their count
                        if is_short:
                            d2 *= keep
                            d2 -= target
                            d2 /= div
                        else:
                            d2 -= target
                            d2 /= size
                        np.matmul(d2, w2_t, out=d1)
                        np.greater(hid_a, 0.0, out=relu_a)
                        d1 *= relu_a
                        np.matmul(xb_t, d1, out=g_w1)
                        np.add.reduce(d1, axis=-2, out=g_b1)
                        np.matmul(hid_t, d2, out=g_w2)
                        np.add.reduce(d2, axis=-2, out=g_b2)
                        g *= lr
                        p -= g
                _, _, probs = _forward(X_pad[:, :n_max], W1, b1, W2, b2)
                p_true = probs[rows, np.arange(n_max), labels]
                for k, net in enumerate(nets):
                    net.loss_history.append(float(-np.mean(np.log(p_true[k, : n[k]] + 1e-300))))
        for k, net in enumerate(nets):
            net.W1, net.b1, net.W2, net.b2 = W1[k].copy(), b1[k].copy(), W2[k].copy(), b2[k].copy()
        for i, net in enumerate(models):
            final = (net.loss_history[-1:], net.W1, net.b1, net.W2, net.b2)
            if not all(np.isfinite(p).all() for p in final):
                raise DataError(f"nn training diverged on fit {i + 1} of {M}; lower nn_lr")
        return models

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        _, _, probs = _forward(np.asarray(X), self.W1, self.b1, self.W2, self.b2)
        return probs

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_scores(X), axis=1)


# algorithm -> (model class, RunConfig field -> constructor argument, whether
# the model takes the seed); an argument left out keeps the constructor default
REGISTRY = {
    "knn": (KNearestNeighbors, {"knn_k": "k"}, False),
    "tree": (DecisionTree, {"tree_max_depth": "max_depth", "tree_min_leaf": "min_leaf"}, False),
    "nb": (GaussianNaiveBayes, {"nb_var_floor": "var_floor"}, False),
    "svm": (LinearSVM, {"svm_lambda": "lam", "svm_epochs": "epochs"}, True),
    "nn": (NeuralNetwork, {"nn_hidden": "hidden", "nn_lr": "lr", "nn_epochs": "epochs",
                           "nn_batch": "batch_size"}, True),
}
ALGORITHMS = tuple(REGISTRY)


@dataclass
class TrainedModel:
    """A fitted classifier plus the standardization that produced its inputs."""

    algorithm: str
    model: object
    standardizer: Standardizer

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != len(self.standardizer.mean):
            raise DataError(
                f"expected {len(self.standardizer.mean)} features, got {features.shape[1]}"
            )
        return self.model.predict(self.standardizer.transform(features))


def train(algorithm: str, dataset: LabeledDataset,
          hyperparams: dict | None = None, seed: int = 0) -> TrainedModel:
    """Fit standardization on the dataset, then the requested classifier."""
    return train_many(algorithm, [dataset], hyperparams, seed)[0]


def train_many(algorithm: str, datasets: list[LabeledDataset],
               hyperparams: dict | None = None, seed: int = 0) -> list[TrainedModel]:
    """`train` on each dataset; families with a `fit_many` train all fits in
    lockstep, which gives each model the parameters it gets when trained alone."""
    if algorithm not in REGISTRY:
        raise DataError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if any(len(ds) == 0 for ds in datasets):
        raise DataError("cannot train on an empty dataset")
    cls, _, takes_seed = REGISTRY[algorithm]
    kwargs = {**(hyperparams or {}), **({"seed": seed} if takes_seed else {})}
    standardizers = [Standardizer().fit(ds.features) for ds in datasets]
    models = [cls(**kwargs) for _ in datasets]
    Xs = [st.transform(ds.features) for st, ds in zip(standardizers, datasets)]
    ys = [ds.labels for ds in datasets]
    fit_many = getattr(type(models[0]), "fit_many", None)
    if fit_many is not None:
        fit_many(models, Xs, ys)
    else:
        for model, X, y in zip(models, Xs, ys):
            model.fit(X, y)
    return [TrainedModel(algorithm, model, st) for model, st in zip(models, standardizers)]
