"""LSTM score stacker: aggregates a window of per-swipe scores.

Single-feature input sequence, one LSTM layer (sigmoid gates, tanh cell),
dense sigmoid head on the final hidden state. Trained with Adam on binary
cross-entropy via full backpropagation through time, with the mini-batch
loop and optimizer the MLP uses.

All parameters live in one flat float64 buffer, ``net.params``: ``Wx``
(4H), ``Wh`` (H x 4H, row-major), ``bias`` (4H), ``w_out`` (H) and
``b_out`` (1). The arrays are views into it and ``b_out`` reads as a
float. ``backward`` returns a gradient in the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers.base import rng_from_seed
from .classifiers.neural import (Adam, _sigmoid, _softplus, flat_buffer,
                                 train_minibatch)
from .errors import InconsistentSequenceLength, TooFewSamples


@dataclass(frozen=True)
class StackerSpec:
    hidden: int = 20
    epochs: int = 50
    batch_size: int = 20
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def with_seed(self, seed: int) -> "StackerSpec":
        return StackerSpec(hidden=self.hidden, epochs=self.epochs,
                           batch_size=self.batch_size, lr=self.lr,
                           beta1=self.beta1, beta2=self.beta2,
                           adam_eps=self.adam_eps, seed=int(seed) % 2 ** 32)

    def as_dict(self) -> dict:
        return {"hidden": self.hidden, "epochs": self.epochs,
                "batch_size": self.batch_size, "lr": self.lr,
                "beta1": self.beta1, "beta2": self.beta2,
                "adam_eps": self.adam_eps, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "StackerSpec":
        return cls(**d)


class LstmStacker:
    """Gate order in the packed weights: input, forget, cell, output."""

    def __init__(self, hidden: int, rng: np.random.Generator | None = None):
        self.hidden = hidden
        H = hidden
        self.params, (self.Wx, self.Wh, self.bias, self.w_out, _) = \
            self._buffer()
        if rng is not None:
            lim_x = np.sqrt(6.0 / (1 + 4 * H))
            lim_h = np.sqrt(6.0 / (H + 4 * H))
            lim_d = np.sqrt(6.0 / (H + 1))
            self.Wx[:] = rng.uniform(-lim_x, lim_x, size=4 * H)
            self.Wh[:] = rng.uniform(-lim_h, lim_h, size=(H, 4 * H))
            self.w_out[:] = rng.uniform(-lim_d, lim_d, size=H)
        self.bias[H:2 * H] = 1.0   # forget gate opens by default

    @property
    def b_out(self) -> float:
        return float(self.params[-1])

    # -- the flat parameter buffer --------------------------------------------

    def _buffer(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """A zeroed buffer laid out like ``params`` and its views Wx, Wh,
        bias, w_out and b_out."""
        H = self.hidden
        return flat_buffer([(4 * H,), (H, 4 * H), (4 * H,), (H,), (1,)])

    def param_vector(self) -> np.ndarray:
        return self.params.copy()

    def set_param_vector(self, v: np.ndarray) -> None:
        self.params[:] = v

    # -- forward / backward --------------------------------------------------

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        """X: (batch, T) score sequences. Returns (logits, caches)."""
        B, T = X.shape
        H = self.hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        caches = []
        for t in range(T):
            pre = X[:, t, None] * self.Wx[None, :] + h @ self.Wh + self.bias
            i = _sigmoid(pre[:, :H])
            f = _sigmoid(pre[:, H:2 * H])
            g = np.tanh(pre[:, 2 * H:3 * H])
            o = _sigmoid(pre[:, 3 * H:])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            caches.append({"x": X[:, t], "h_prev": h, "c_prev": c,
                           "i": i, "f": f, "g": g, "o": o,
                           "c": c_new, "tanh_c": tanh_c})
            h, c = h_new, c_new
        z = h @ self.w_out + self.b_out
        caches.append({"h_final": h})
        return z, caches

    def backward(self, caches: list[dict], z: np.ndarray, y: np.ndarray
                 ) -> np.ndarray:
        """Flat gradient of mean BCE over the batch, laid out like
        ``params``."""
        B = len(y)
        H = self.hidden
        grad, (dWx, dWh, dbias, d_w_out, d_b_out) = self._buffer()
        dz = (_sigmoid(z) - y) / B
        d_w_out[:] = caches[-1]["h_final"].T @ dz
        d_b_out[0] = dz.sum()
        dh = dz[:, None] * self.w_out[None, :]
        dc = np.zeros((B, H))
        for cache in reversed(caches[:-1]):
            i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
            tanh_c = cache["tanh_c"]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            di = dc * g
            df = dc * cache["c_prev"]
            dg = dc * i
            dpre = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g ** 2),
                do * o * (1.0 - o)], axis=1)
            dWx += cache["x"] @ dpre
            dWh += cache["h_prev"].T @ dpre
            dbias += dpre.sum(axis=0)
            dh = dpre @ self.Wh.T
            dc = dc * f
        return grad

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        z, caches = self.forward(X)
        loss = float(np.mean(_softplus(z) - y * z))
        return loss, self.backward(caches, z, y)

    def predict(self, X: np.ndarray) -> np.ndarray:
        z, _ = self.forward(X)
        return _sigmoid(z)

    def state_dict(self) -> dict:
        return {"hidden": self.hidden, "Wx": self.Wx.tolist(),
                "Wh": self.Wh.tolist(), "bias": self.bias.tolist(),
                "w_out": self.w_out.tolist(), "b_out": self.b_out}

    @classmethod
    def from_state(cls, state: dict) -> "LstmStacker":
        net = cls(int(state["hidden"]), rng=None)
        for key in ("Wx", "Wh", "bias", "w_out"):
            getattr(net, key)[:] = state[key]
        net.params[-1] = float(state["b_out"])
        return net


def _as_sequence_matrix(sequences) -> np.ndarray:
    if isinstance(sequences, np.ndarray) and sequences.ndim == 2:
        return np.asarray(sequences, dtype=float)
    lengths = {len(s) for s in sequences}
    if len(lengths) != 1:
        raise InconsistentSequenceLength(
            f"sequences must share one length, got {sorted(lengths)}")
    return np.array([np.asarray(s, dtype=float) for s in sequences])


def train_stacker(sequences, labels, spec: StackerSpec = StackerSpec()
                  ) -> LstmStacker:
    """Fit the stacker on score sequences with binary labels."""
    X = _as_sequence_matrix(sequences)
    y = np.asarray(labels, dtype=float)
    if len(X) != len(y):
        raise InconsistentSequenceLength(
            f"{len(X)} sequences but {len(y)} labels")
    if len(X) < 2:
        raise TooFewSamples("stacker training needs >= 2 sequences")
    rng = rng_from_seed(spec.seed)
    net = LstmStacker(spec.hidden, rng=rng)

    def batch_grad(idx: np.ndarray) -> np.ndarray:
        z, caches = net.forward(X[idx])
        return net.backward(caches, z, y[idx])

    adam = Adam(net.params, spec.lr, spec.beta1, spec.beta2, spec.adam_eps)
    train_minibatch(adam, len(y), rng, spec.epochs, spec.batch_size,
                    batch_grad)
    return net


def stack_score(net: LstmStacker, sequences) -> np.ndarray:
    """Aggregated genuine-score per sequence."""
    X = _as_sequence_matrix(sequences)
    return net.predict(X)
