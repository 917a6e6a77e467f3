"""Five classifier families, implemented from scratch on numpy.

All models consume z-scored features (the TrainedModel wrapper owns the
fitted Standardizer) and are deterministic given (data, hyperparams, seed).
"""

from __future__ import annotations

import inspect
import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, Standardizer, label_classes
from .errors import DataError

log = logging.getLogger(__name__)


# --- k-nearest neighbors ---------------------------------------------------

class KNearestNeighbors:
    def __init__(self, k: int = 5):
        self.n_neighbors = k  # as configured
        self.k = k            # as the last fit uses it: at most its row count
        self.X = None
        self.y = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        if len(X) == 0:
            raise DataError("cannot fit knn on an empty dataset")
        self.k = min(self.n_neighbors, len(X))
        if self.k < self.n_neighbors:
            log.warning("knn k=%d > n=%d; clamping to n", self.n_neighbors, len(X))
        self.X = np.array(X)
        self.y = np.array(y)
        return self

    def _distances(self, X: np.ndarray) -> np.ndarray:
        """(queries x rows) Euclidean distances, one query row at a time, so
        the working set is one (rows x features) difference, not a
        (queries x rows x features) tensor."""
        X = np.asarray(X)
        dists = np.empty((len(X), len(self.X)))
        diff = np.empty(self.X.shape, np.result_type(self.X, X))
        for q, row in zip(X, dists):
            np.square(np.subtract(self.X, q, out=diff), out=diff)
            np.sqrt(np.sum(diff, axis=1, out=row), out=row)
        return dists

    def predict(self, X: np.ndarray) -> np.ndarray:
        # each query's k nearest rows in stable-argsort order vote
        dists = self._distances(X)
        order = np.argsort(dists, axis=1, kind="stable")[:, : self.k]
        labels = self.y[order]
        counts = np.stack([np.count_nonzero(labels == c, axis=1) for c in range(3)], axis=1)
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
            if (depth >= self.max_depth or np.count_nonzero(counts) <= 1
                    or len(y) < 2 * self.min_leaf):
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        # the majority class of each row's leaf; argmax takes the lower label on ties
        return np.array([np.argmax(self._leaf(x)["counts"]) for x in np.asarray(X)],
                        dtype=np.int64)


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
        self.classes_ = label_classes(y)
        self.priors = np.array([np.mean(y == c) for c in self.classes_])
        self.means = np.array([X[y == c].mean(axis=0) for c in self.classes_])
        self.vars = np.maximum(
            np.array([X[y == c].var(axis=0) for c in self.classes_]), self.var_floor
        )
        # the log-likelihood takes log(2 pi var); checked in Python floats,
        # which overflow to inf without a numpy warning
        largest = float(self.vars.max())
        if 2.0 * math.pi * largest == math.inf:
            raise DataError(f"naive Bayes variance {largest} is too large: 2 pi var "
                            "overflows float64; lower nb_var_floor")
        return self

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        # (classes, rows, features) terms; over a subnormal variance the squared
        # distance can overflow to inf, which gives the right limit, a
        # log-likelihood of -inf
        means, vars_ = self.means[:, None, :], self.vars[:, None, :]
        with np.errstate(over="ignore"):
            ll = -0.5 * np.sum(np.log(2.0 * np.pi * vars_) + (np.asarray(X) - means) ** 2 / vars_,
                               axis=-1)
        return (np.log(self.priors)[:, None] + ll).T

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._log_joint(X), axis=1)]


# --- linear one-vs-rest SVM ------------------------------------------------

class LinearSVM:
    """Primal sub-gradient descent on hinge loss, one binary machine per class."""

    def __init__(self, lam: float = 1e-3, epochs: int = 200, seed: int = 0):
        self.lam = lam
        self.epochs = epochs
        self.seed = seed
        self.W = None  # (n_classes, n_features)
        self.b = None
        self.classes_ = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        return self.fit_many([self], [X], [y])[0]

    @staticmethod
    def fit_many(models: list["LinearSVM"], Xs: list, ys: list) -> list["LinearSVM"]:
        """Fit models[i] on (Xs[i], ys[i]), every one-vs-rest machine in lockstep.

        Machine ci of a model draws one permutation of its n rows per epoch
        from default_rng(seed + ci), and step i of epoch e takes row i of it
        with eta = 1 / (1 + lam * t), t = e * n + i + 1.  Step i of
        every machine's epoch is one lockstep step, and a machine with fewer
        rows than the largest fit idles on the rest of the epoch with eta = 0,
        a step that leaves its w and b as they are, so a model's W and b are
        those it gets when trained alone.
        """
        lam, epochs = models[0].lam, models[0].epochs
        if any((m.lam, m.epochs) != (lam, epochs) for m in models):
            raise ValueError("SVMs trained together must share lam and epochs")
        Xs = [np.asarray(X, dtype=np.float64) for X in Xs]
        if any(len(X) == 0 for X in Xs):
            raise DataError("cannot fit svm on an empty dataset")
        machines = []  # (model index, class index)
        for mi, (model, X, y) in enumerate(zip(models, Xs, ys)):
            model.classes_ = label_classes(y)
            model.W = np.zeros((len(model.classes_), X.shape[1]))
            model.b = np.zeros(len(model.classes_))
            machines += [(mi, ci) for ci in range(len(model.classes_))]
        owner = np.array([mi for mi, _ in machines])
        n = np.array([len(Xs[mi]) for mi in owner])
        n_max, d = int(n.max()), Xs[0].shape[1]
        n_steps = epochs * n_max
        if not math.isfinite(lam * float(n_steps)):
            raise DataError(f"svm_lambda {lam} is too large: lambda * steps "
                            f"({lam} * {n_steps}) overflows float64")
        X_pad = np.zeros((len(Xs), n_max, d))
        targets = np.zeros((len(machines), n_max))
        for mi, X in enumerate(Xs):
            X_pad[mi, : len(X)] = X
        for k, (mi, ci) in enumerate(machines):
            targets[k, : n[k]] = np.where(np.asarray(ys[mi]) == models[mi].classes_[ci], 1.0, -1.0)
        rngs = [np.random.default_rng(models[mi].seed + ci) for mi, ci in machines]
        # (step, machine) row of each step of one epoch; an idle step takes
        # row 0, where its eta of 0 makes the decay 1.0 and the update (0 * x, 0)
        order = np.zeros((n_max, len(machines)), dtype=np.int64)
        steps = np.arange(n_max)[:, None]
        idle = steps >= n
        # each machine's w and b side by side, so one masked add updates both
        Wb = np.zeros((len(machines), d + 1))
        W, bias = Wb[:, :d], Wb[:, d]
        margin = np.zeros(len(machines))
        hit = np.zeros((len(machines), 1), dtype=bool)
        hit_row = hit[:, 0]
        # an epoch's steps run in chunks of 128, so the per-step arrays stay
        # O(machines x 128 x d) in memory whatever the row count
        chunk = 128
        # per step of a chunk: the hinge update (gain * x, gain) of every
        # machine, and its decay (1 - eta * lam, ..., 1.0), which shrinks w
        # and leaves b as it is
        update = np.zeros((chunk, len(machines), d + 1))
        decay = np.ones((chunk, len(machines), d + 1))
        for epoch in range(epochs):
            for k, rng in enumerate(rngs):
                order[: n[k], k] = rng.permutation(n[k])
            etas = np.where(idle, 0.0, 1.0 / (1.0 + lam * (epoch * n + steps + 1.0)))
            for start in range(0, n_max, chunk):
                eta, rows = etas[start:start + chunk], order[start:start + chunk]
                decay[: len(eta), :, :d] = (1.0 - eta * lam)[:, :, None]
                x_steps = X_pad[owner, rows]
                t_steps = targets[np.arange(len(machines)), rows]
                gain = eta * t_steps
                np.multiply(gain[:, :, None], x_steps, out=update[: len(eta), :, :d])
                update[: len(eta), :, d] = gain
                for x, t, upd, dec in zip(x_steps, t_steps, update, decay):
                    # vecdot takes each row's dot product in BLAS, as `x @ w` does
                    np.vecdot(x, W, out=margin)
                    margin += bias
                    margin *= t
                    np.less(margin, 1.0, out=hit_row)
                    Wb *= dec
                    np.add(Wb, upd, out=Wb, where=hit)
        for k, (mi, ci) in enumerate(machines):
            models[mi].W[ci] = W[k]
            models[mi].b[ci] = bias[k]
        return models

    def predict(self, X: np.ndarray) -> np.ndarray:
        # a class absent from training keeps -inf and is never predicted
        scores = np.full((len(X), 3), -np.inf)
        scores[:, self.classes_] = np.asarray(X) @ self.W.T + self.b
        return np.argmax(scores, axis=1)


# --- 3-layer neural network ------------------------------------------------

def _forward(X, W1, b1, W2, b2):
    """Hidden pre-activation, hidden activation and softmax output of one
    batch (n, d), or of stacked batches (M, n, d) with stacked parameters."""
    z1 = X @ W1 + b1[..., None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ W2 + b2[..., None, :]
    z2 -= z2.max(axis=-1, keepdims=True)
    np.exp(z2, out=z2)
    z2 /= z2.sum(axis=-1, keepdims=True)
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

    def init_params(self, n_features: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(self.seed)
        lim1 = np.sqrt(6.0 / (n_features + self.hidden))
        lim2 = np.sqrt(6.0 / (self.hidden + 3))
        self.W1 = rng.uniform(-lim1, lim1, size=(n_features, self.hidden))
        self.b1 = np.zeros(self.hidden)
        self.W2 = rng.uniform(-lim2, lim2, size=(self.hidden, 3))
        self.b2 = np.zeros(3)

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
        batch is zero-padded, and a network with no batch k steps on padding
        alone.  Each row's output error is divided by its batch's real row
        count, and a padding row's by inf, which makes it exactly zero, so a
        network's weights do not depend on the networks trained beside it.
        Each epoch gathers its batches once, and a step works in buffers
        allocated once and updates the parameters in place through views,
        allocating no array.

        The mean cross-entropy over all training rows is computed once, after
        the last epoch, for the divergence check.
        """
        if len({(m.hidden, m.lr, m.epochs, m.batch_size) for m in models}) > 1:
            raise ValueError("networks trained together must share hyperparameters")
        Xs = [np.asarray(X, dtype=np.float64) for X in Xs]
        if any(len(X) == 0 for X in Xs):
            raise DataError("cannot fit neural network on an empty dataset")
        n = np.array([len(X) for X in Xs])
        first = models[0]
        lr, epochs, size, h = first.lr, first.epochs, first.batch_size, first.hidden
        M, n_max, d = len(models), int(n.max()), Xs[0].shape[1]
        pad = n_max  # row index of an all-zero input with an all-zero target
        X_pad = np.zeros((M, n_max + 1, d))
        onehot = np.zeros((M, n_max + 1, 3))
        # each network's W1, b1, W2, b2 are views into its row of P, and its
        # gradients views into the same places of G, so one step updates
        # every parameter with two calls
        shapes = ((d, h), (h,), (h, 3), (3,))
        bounds = np.cumsum([0, d * h, h, h * 3, 3]).tolist()
        P, G = np.zeros((2, M, bounds[-1]))
        W1, b1, W2, b2, g_w1, g_b1, g_w2, g_b2 = (x[:, lo:hi].reshape(M, *s) for x in (P, G)
                                                  for lo, hi, s in zip(bounds, bounds[1:], shapes))
        rngs = []
        for k, (net, X, y) in enumerate(zip(models, Xs, ys)):
            X_pad[k, : n[k]] = X
            onehot[k, np.arange(n[k]), np.asarray(y, dtype=np.int64)] = 1.0
            rngs.append(np.random.default_rng(net.seed))
            net.init_params(d, rngs[-1])
            W1[k], b1[k], W2[k], b2[k] = net.W1, net.b1, net.W2, net.b2
        n_batches = -(-n_max // size)
        # rows of each network in batch k: fewer than size in a short last
        # batch, and none where the network has no batch k and idles on padding
        filled = n[None, :] - size * np.arange(n_batches)[:, None]
        # (step, network, slot) divisor of the output error: a real row's
        # batch row count, and inf on a padding slot, where the softmax
        # output p >= 0 (or NaN once a fit diverges) divides to exactly 0
        divisor = np.where(np.arange(size) < filled[..., None],
                           np.minimum(filled, size)[..., None], np.inf)[..., None]
        rows = np.arange(M)[:, None]
        schedule = np.full((M, n_batches * size), pad)
        # (step, network, row) indices of one epoch's batches
        batches = schedule.reshape(M, n_batches, size).transpose(1, 0, 2)
        # step buffers: hidden activation, output error, hidden error, ReLU
        # mask, and each row's softmax max, then sum
        hid, delta2, delta1 = np.zeros((M, size, h)), np.zeros((M, size, 3)), np.zeros((M, size, h))
        relu, stat = np.zeros((M, size, h)), np.zeros((M, size))
        # biases shaped to add to a stacked batch, W2 and the hidden activation
        # transposed, the output error's class columns and the stat as a column
        b1_rows, b2_rows, stat_col = b1[:, None, :], b2[:, None, :], stat[:, :, None]
        W2_t, hid_t = np.swapaxes(W2, -1, -2), np.swapaxes(hid, -1, -2)
        # the step's softmax max goes column by column: cheaper than a max
        # over the length-3 class axis, and as exact
        d2_0, d2_1, d2_2 = np.moveaxis(delta2, -1, 0)
        # a diverging fit overflows; it is reported once, after the loop
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(epochs):
                for k, rng in enumerate(rngs):
                    schedule[k, : n[k]] = rng.permutation(n[k])
                xb_all = X_pad[rows.T[:, :, None], batches]
                onehot_all = onehot[rows.T[:, :, None], batches]
                for xb, xb_t, target, div in zip(
                        xb_all, np.swapaxes(xb_all, -1, -2), onehot_all, divisor):
                    # forward: hidden ReLU activation, then softmax probabilities
                    np.matmul(xb, W1, out=hid)
                    hid += b1_rows
                    np.maximum(hid, 0.0, out=hid)
                    np.matmul(hid, W2, out=delta2)
                    delta2 += b2_rows
                    np.maximum(d2_0, d2_1, out=stat)
                    np.maximum(stat, d2_2, out=stat)
                    delta2 -= stat_col
                    np.exp(delta2, out=delta2)
                    np.add.reduce(delta2, axis=-1, out=stat)
                    delta2 /= stat_col
                    # output error, divided by the batch's real row count
                    delta2 -= target
                    delta2 /= div
                    np.matmul(delta2, W2_t, out=delta1)
                    # 1.0 where the unit is on and 0.0 where it is off, as a
                    # float, since multiplying by a bool mask casts it first
                    np.sign(hid, out=relu)
                    delta1 *= relu
                    np.matmul(xb_t, delta1, out=g_w1)
                    np.add.reduce(delta1, axis=-2, out=g_b1)
                    np.matmul(hid_t, delta2, out=g_w2)
                    np.add.reduce(delta2, axis=-2, out=g_b2)
                    G *= lr
                    P -= G
            # each network's mean cross-entropy over its training rows
            _, _, probs = _forward(X_pad[:, :n_max], W1, b1, W2, b2)
            p_true = (probs * onehot[:, :n_max]).sum(axis=-1)
            last = [float(-np.mean(np.log(p_true[k, : n[k]] + 1e-300))) for k in range(M)]
        for k, net in enumerate(models):
            if not (math.isfinite(last[k]) and np.isfinite(P[k]).all()):
                raise DataError(f"nn training diverged on fit {k + 1} of {M}; lower nn_lr")
            net.W1, net.b1, net.W2, net.b2 = W1[k].copy(), b1[k].copy(), W2[k].copy(), b2[k].copy()
        return models

    def predict(self, X: np.ndarray) -> np.ndarray:
        _, _, probs = _forward(np.asarray(X), self.W1, self.b1, self.W2, self.b2)
        return np.argmax(probs, axis=1)


# algorithm -> model class; `train_many` passes the seed to a constructor that takes one
REGISTRY = {"knn": KNearestNeighbors, "tree": DecisionTree, "nb": GaussianNaiveBayes,
            "svm": LinearSVM, "nn": NeuralNetwork}
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
    cls = REGISTRY[algorithm]
    takes_seed = "seed" in inspect.signature(cls).parameters
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
