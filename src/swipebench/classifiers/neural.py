"""Feed-forward network: per-hidden-layer batch-norm, ReLU, dropout between
hidden layers, sigmoid output, binary cross-entropy, Adam.

Weights initialize He-style uniform (+-sqrt(6/fan_in)) from the spec seed;
each epoch reshuffles with the same generator stream, so training is fully
reproducible. The trainable parameters live in one flat float64 buffer,
``net.params``: per hidden layer ``W`` (fan_in x h), ``b``, ``gamma`` and
``beta``, then the output ``W`` (fan_in x 1) and ``b``. The arrays in
``net.layers`` and ``net.out`` are views into it; the running batch-norm
statistics, which Adam does not train, are separate arrays. ``backward``
returns a gradient in the same layout, so one ``Adam`` steps the whole
buffer; ``Adam`` and ``train_minibatch`` also train the LSTM stacker.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (ClassifierSpec, Standardizer, TrainedModel,
                   check_training_inputs, register_model, rng_from_seed)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                    np.exp(z) / (1.0 + np.exp(z)))


def flat_buffer(shapes: list[tuple[int, ...]]
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zeroed float64 buffer and one view into it per shape, in order."""
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.zeros(sum(sizes))
    parts = np.split(buffer, np.cumsum(sizes)[:-1])
    return buffer, [part.reshape(shape) for part, shape in zip(parts, shapes)]


_LAYER_KEYS = ("W", "b", "gamma", "beta")


class MlpNetwork:
    """The bare network; training state lives in the model wrapper."""

    def __init__(self, d_in: int, hidden: tuple[int, ...],
                 bn_momentum: float, bn_eps: float,
                 rng: np.random.Generator | None = None):
        self.d_in = d_in
        self.hidden = tuple(int(h) for h in hidden)
        self.bn_momentum = bn_momentum
        self.bn_eps = bn_eps
        self.params, self.layers, self.out = self._buffer()
        for layer, h in zip(self.layers, self.hidden):
            layer["gamma"][:] = 1.0
            layer["run_mean"] = np.zeros(h)
            layer["run_var"] = np.ones(h)
        if rng is not None:
            for holder in self.layers + [self.out]:
                lim = np.sqrt(6.0 / holder["W"].shape[0])
                holder["W"][:] = rng.uniform(-lim, lim, size=holder["W"].shape)

    def _buffer(self) -> tuple[np.ndarray, list[dict], dict]:
        """A zeroed buffer laid out like ``params``, with the per-hidden-layer
        dicts and the output dict of views into it."""
        shapes, fan_in = [], self.d_in
        for h in self.hidden:
            shapes += [(fan_in, h), (h,), (h,), (h,)]
            fan_in = h
        buffer, views = flat_buffer(shapes + [(fan_in, 1), (1,)])
        layers = [dict(zip(_LAYER_KEYS, views[i:i + 4]))
                  for i in range(0, len(views) - 2, 4)]
        return buffer, layers, {"W": views[-2], "b": views[-1]}

    def param_vector(self) -> np.ndarray:
        return self.params.copy()

    def set_param_vector(self, v: np.ndarray) -> None:
        self.params[:] = v

    # -- forward / backward --------------------------------------------------

    def forward(self, X: np.ndarray, train: bool,
                dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None,
                update_running: bool = False) -> tuple[np.ndarray, list[dict]]:
        """Returns (logits, caches). Dropout applies between hidden layers
        (not after the last one) and only when a rate and rng are given."""
        h = X
        caches = []
        last_hidden = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            a = h @ layer["W"] + layer["b"]
            if train:
                mu = a.mean(axis=0)
                var = a.var(axis=0)
                if update_running:
                    m = self.bn_momentum
                    layer["run_mean"] = m * layer["run_mean"] + (1 - m) * mu
                    layer["run_var"] = m * layer["run_var"] + (1 - m) * var
            else:
                mu = layer["run_mean"]
                var = layer["run_var"]
            inv = 1.0 / np.sqrt(var + self.bn_eps)
            xhat = (a - mu) * inv
            bn = layer["gamma"] * xhat + layer["beta"]
            relu = np.maximum(bn, 0.0)
            if train and dropout_rate > 0.0 and rng is not None and i < last_hidden:
                keep = (rng.random(relu.shape) >= dropout_rate)
                dropped = relu * keep / (1.0 - dropout_rate)
            else:
                keep = None
                dropped = relu
            caches.append({"h_in": h, "a": a, "xhat": xhat, "inv": inv,
                           "bn": bn, "keep": keep})
            h = dropped
        z = (h @ self.out["W"] + self.out["b"]).ravel()
        caches.append({"h_in": h})
        return z, caches

    def loss_from_logits(self, z: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(_softplus(z) - y * z))

    def backward(self, caches: list[dict], z: np.ndarray, y: np.ndarray,
                 dropout_rate: float = 0.0) -> np.ndarray:
        """Flat gradient of the mean BCE loss, laid out like ``params``,
        matching the caches of the corresponding forward(train=True) call."""
        grad, grad_layers, grad_out = self._buffer()
        m = len(y)
        dz = (_sigmoid(z) - y)[:, None] / m
        grad_out["W"][:] = caches[-1]["h_in"].T @ dz
        grad_out["b"][:] = dz.sum(axis=0)
        dh = dz @ self.out["W"].T

        for i in range(len(self.layers) - 1, -1, -1):
            layer, cache, g = self.layers[i], caches[i], grad_layers[i]
            if cache["keep"] is not None:
                dh = dh * cache["keep"] / (1.0 - dropout_rate)
            drelu = dh * (cache["bn"] > 0.0)
            g["gamma"][:] = (drelu * cache["xhat"]).sum(axis=0)
            g["beta"][:] = drelu.sum(axis=0)
            dxhat = drelu * layer["gamma"]
            bm = len(cache["a"])
            da = (cache["inv"] / bm) * (
                bm * dxhat - dxhat.sum(axis=0)
                - cache["xhat"] * (dxhat * cache["xhat"]).sum(axis=0))
            g["W"][:] = cache["h_in"].T @ da
            g["b"][:] = da.sum(axis=0)
            dh = da @ layer["W"].T
        return grad

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray
                      ) -> tuple[float, np.ndarray]:
        """Deterministic loss/gradient on one batch: training-mode batch
        statistics, dropout off, running stats untouched."""
        z, caches = self.forward(X, train=True)
        return self.loss_from_logits(z, y), self.backward(caches, z, y)

    def predict(self, X: np.ndarray) -> np.ndarray:
        z, _ = self.forward(X, train=False)
        return _sigmoid(z)

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "hidden": list(self.hidden),
            "layers": [{k: layer[k].tolist()
                        for k in _LAYER_KEYS + ("run_mean", "run_var")}
                       for layer in self.layers],
            "out": {"W": self.out["W"].tolist(), "b": self.out["b"].tolist()},
        }

    @classmethod
    def from_state(cls, d_in: int, state: dict, bn_momentum: float,
                   bn_eps: float) -> "MlpNetwork":
        net = cls(d_in, tuple(state["hidden"]), bn_momentum, bn_eps, rng=None)
        for layer, saved in zip(net.layers, state["layers"]):
            for k in _LAYER_KEYS:
                layer[k][:] = saved[k]
            layer["run_mean"] = np.array(saved["run_mean"], dtype=float)
            layer["run_var"] = np.array(saved["run_var"], dtype=float)
        net.out["W"][:] = state["out"]["W"]
        net.out["b"][:] = state["out"]["b"]
        return net


class Adam:
    """Adam (Kingma & Ba, 2015) over one flat parameter buffer, in place
    through preallocated scratch (whole-buffer temporaries fall out of
    cache). Per element: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p -= (lr*m_hat) / (sqrt(v_hat) + eps)."""

    def __init__(self, params: np.ndarray, lr: float, beta1: float,
                 beta2: float, eps: float):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self.m, self.v
        num, den = self._num, self._den
        np.multiply(m, b1, out=m)
        np.multiply(grad, 1 - b1, out=num)
        np.add(m, num, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(grad, 1 - b2, out=num)
        np.multiply(num, grad, out=num)
        np.add(v, num, out=v)
        np.divide(m, 1 - b1 ** self.t, out=num)
        np.multiply(num, self.lr, out=num)
        np.divide(v, 1 - b2 ** self.t, out=den)
        np.sqrt(den, out=den)
        np.add(den, self.eps, out=den)
        np.divide(num, den, out=num)
        np.subtract(self.params, num, out=self.params)


def train_minibatch(adam: Adam, n: int, rng: np.random.Generator,
                    epochs: int, batch_size: int, batch_grad) -> None:
    """Shuffled mini-batch training: one permutation of the n samples per
    epoch, then one Adam step per batch on ``batch_grad(indices)``."""
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            adam.step(batch_grad(order[start:start + batch_size]))


def train_mlp(net: MlpNetwork, X: np.ndarray, y: np.ndarray,
              rng: np.random.Generator, epochs: int, batch_size: int,
              dropout: float, lr: float, beta1: float, beta2: float,
              adam_eps: float) -> None:
    def batch_grad(idx: np.ndarray) -> np.ndarray:
        z, caches = net.forward(X[idx], train=True, dropout_rate=dropout,
                                rng=rng, update_running=True)
        return net.backward(caches, z, y[idx], dropout_rate=dropout)

    train_minibatch(Adam(net.params, lr, beta1, beta2, adam_eps), len(y),
                    rng, epochs, batch_size, batch_grad)


@register_model("neural_net")
class NeuralNetModel(TrainedModel):
    def __init__(self, spec, standardizer, n_features, net: MlpNetwork):
        super().__init__(spec, standardizer, n_features)
        self.net = net

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "NeuralNetModel":
        X, y = check_training_inputs(spec, X, y)
        std = Standardizer.fit(X, defined)
        Z = std.transform(X, defined)
        p = spec.params
        rng = rng_from_seed(spec.seed)
        net = MlpNetwork(Z.shape[1], tuple(p["hidden"]), p["bn_momentum"],
                         p["bn_eps"], rng=rng)
        train_mlp(net, Z, y.astype(float), rng, epochs=int(p["epochs"]),
                  batch_size=int(p["batch_size"]), dropout=float(p["dropout"]),
                  lr=p["lr"], beta1=p["beta1"], beta2=p["beta2"],
                  adam_eps=p["adam_eps"])
        return cls(spec, std, X.shape[1], net)

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        return self.net.predict(Z)

    def _payload(self) -> dict:
        return {"net": self.net.state_dict()}

    @classmethod
    def _from_payload(cls, spec, standardizer, n_features, payload):
        p = spec.params
        net = MlpNetwork.from_state(n_features, payload["net"],
                                    p["bn_momentum"], p["bn_eps"])
        return cls(spec, standardizer, n_features, net)
