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
buffer.

``FlatNetwork`` holds what the MLP and the LSTM stacker share: the flat
buffer's accessors, the binary cross-entropy loss, the sigmoid scorer and
one ``fit``. Gradient ownership: ``fit`` allocates one gradient buffer per
training run and ``backward`` overwrites it in place on every step, since
Adam has consumed the previous step's gradient before the next one is
computed. ``loss_and_grad`` passes no buffer, so each call returns a new
array that its caller owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import ClassifierSpec, TrainedModel, register_model, training_inputs


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both from
    one e^-|z|, which is exactly e^-z on the first side and e^z on the
    second."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def flat_buffer(shapes: list[tuple[int, ...]]
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zeroed float64 buffer and one view into it per shape, in order."""
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.zeros(sum(sizes))
    parts = np.split(buffer, np.cumsum(sizes)[:-1])
    return buffer, [part.reshape(shape) for part, shape in zip(parts, shapes)]


class FlatNetwork:
    """A binary classifier whose trainable parameters are one flat float64
    buffer, ``params``. A subclass builds the buffer and defines
    ``_buffer()`` (a zeroed gradient buffer in the layout ``backward``
    takes), ``forward(X, train=False, rng=None)`` returning (logits,
    caches), and ``backward(caches, z, y, grad=None)`` returning the flat
    gradient of the mean BCE loss."""

    params: np.ndarray

    def param_vector(self) -> np.ndarray:
        return self.params.copy()

    def set_param_vector(self, v: np.ndarray) -> None:
        self.params[:] = v

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray
                      ) -> tuple[float, np.ndarray]:
        """Deterministic mean BCE loss and gradient on one batch: a
        training pass given no rng. The gradient is a new array."""
        z, caches = self.forward(X, train=True)
        loss = float(np.mean(_softplus(z) - y * z))
        return loss, self.backward(caches, z, y)

    def predict(self, X: np.ndarray) -> np.ndarray:
        z, _ = self.forward(X)
        return _sigmoid(z)

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
            epochs: int, batch_size: int, lr: float, beta1: float,
            beta2: float, adam_eps: float) -> None:
        """Shuffled mini-batch Adam on BCE: one permutation of the rows per
        epoch, then one step per batch, through one gradient buffer."""
        grad = self._buffer()
        adam = Adam(self.params, lr, beta1, beta2, adam_eps)
        for _ in range(epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), batch_size):
                idx = order[start:start + batch_size]
                z, caches = self.forward(X[idx], train=True, rng=rng)
                adam.step(self.backward(caches, z, y[idx], grad=grad))


_LAYER_KEYS = ("W", "b", "gamma", "beta")


class MlpNetwork(FlatNetwork):
    """The bare network; training state lives in the model wrapper."""

    def __init__(self, d_in: int, hidden: tuple[int, ...],
                 bn_momentum: float, bn_eps: float, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        self.d_in = d_in
        self.hidden = tuple(int(h) for h in hidden)
        self.bn_momentum = bn_momentum
        self.bn_eps = bn_eps
        self.dropout = dropout
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

    # -- forward / backward --------------------------------------------------

    def forward(self, X: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None
                ) -> tuple[np.ndarray, list[dict]]:
        """Returns (logits, caches). A training pass normalizes by batch
        statistics; given an rng it is also a training step, which drops
        out between hidden layers (not after the last one) and updates the
        running statistics. The batch mean and variance are NumPy's own
        ``mean`` and ``var`` arithmetic, the variance from the centred
        batch, so they equal ``a.mean(axis=0)`` and ``a.var(axis=0)`` bit
        for bit."""
        step = train and rng is not None
        h = X
        caches = []
        last_hidden = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            a = h @ layer["W"] + layer["b"]
            if train:
                mu = np.add.reduce(a, axis=0) / len(a)
                xc = a - mu
                var = np.add.reduce(xc * xc, axis=0) / len(a)
                if step:
                    m = self.bn_momentum
                    layer["run_mean"] = m * layer["run_mean"] + (1 - m) * mu
                    layer["run_var"] = m * layer["run_var"] + (1 - m) * var
            else:
                xc = a - layer["run_mean"]
                var = layer["run_var"]
            inv = 1.0 / np.sqrt(var + self.bn_eps)
            xhat = xc * inv
            bn = layer["gamma"] * xhat + layer["beta"]
            relu = np.maximum(bn, 0.0)
            if step and self.dropout > 0.0 and i < last_hidden:
                keep = (rng.random(relu.shape) >= self.dropout)
                dropped = relu * keep / (1.0 - self.dropout)
            else:
                keep = None
                dropped = relu
            caches.append({"h_in": h, "xhat": xhat, "inv": inv, "bn": bn,
                           "keep": keep})
            h = dropped
        z = (h @ self.out["W"] + self.out["b"]).ravel()
        caches.append({"h_in": h})
        return z, caches

    def backward(self, caches: list[dict], z: np.ndarray, y: np.ndarray,
                 grad: tuple[np.ndarray, list[dict], dict] | None = None
                 ) -> np.ndarray:
        """Flat gradient of the mean BCE loss, laid out like ``params``,
        matching the caches of the corresponding forward(train=True) call.
        It is written into ``grad``, a ``_buffer()`` triple that the caller
        owns and may pass again on the next step (every entry is
        overwritten), or into a new buffer when ``grad`` is None."""
        buffer, grad_layers, grad_out = grad or self._buffer()
        m = len(y)
        dz = (_sigmoid(z) - y)[:, None] / m
        np.matmul(caches[-1]["h_in"].T, dz, out=grad_out["W"])
        np.add.reduce(dz, axis=0, out=grad_out["b"])
        dh = dz @ self.out["W"].T

        for i in range(len(self.layers) - 1, -1, -1):
            layer, cache, g = self.layers[i], caches[i], grad_layers[i]
            xhat = cache["xhat"]
            if cache["keep"] is not None:
                dh = dh * cache["keep"] / (1.0 - self.dropout)
            drelu = dh * (cache["bn"] > 0.0)
            np.add.reduce(drelu * xhat, axis=0, out=g["gamma"])
            np.add.reduce(drelu, axis=0, out=g["beta"])
            dxhat = drelu * layer["gamma"]
            bm = len(xhat)
            da = (cache["inv"] / bm) * (
                bm * dxhat - np.add.reduce(dxhat, axis=0)
                - xhat * np.add.reduce(dxhat * xhat, axis=0))
            np.matmul(cache["h_in"].T, da, out=g["W"])
            np.add.reduce(da, axis=0, out=g["b"])
            if i > 0:
                dh = da @ layer["W"].T
        return buffer

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


@register_model("neural_net")
@dataclass(eq=False)
class NeuralNetModel(TrainedModel):
    net: MlpNetwork

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "NeuralNetModel":
        std, Z, y = training_inputs(spec, X, y, defined)
        p = spec.params
        rng = np.random.default_rng(spec.seed)
        net = MlpNetwork(Z.shape[1], tuple(p["hidden"]), p["bn_momentum"],
                         p["bn_eps"], dropout=float(p["dropout"]), rng=rng)
        net.fit(Z, y.astype(float), rng, int(p["epochs"]),
                int(p["batch_size"]), p["lr"], p["beta1"], p["beta2"],
                p["adam_eps"])
        return cls(spec, std, Z.shape[1], net)

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
