"""LSTM score stacker: aggregates a window of per-swipe scores.

Single-feature input sequence, one LSTM layer (sigmoid gates, tanh cell),
dense sigmoid head on the final hidden state. Trained with Adam on binary
cross-entropy via full backpropagation through time, by
``FlatNetwork.fit``, the loop the MLP trains through too.

All parameters live in one flat float64 buffer, ``net.params``: ``Wx``
(4H), ``Wh`` (H x 4H, row-major), ``bias`` (4H), ``w_out`` (H) and
``b_out`` (1). The arrays are views into it and ``b_out`` reads as a
float. ``backward`` returns a gradient in the same layout; as for the MLP,
``fit`` owns one gradient buffer that every step zeroes and refills, and
``loss_and_grad`` returns a new array per call. A forward pass scales the
whole batch by ``Wx`` once and takes the three sigmoid gates from one call
over the packed pre-activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers.base import PARAM_RULES
from .classifiers.neural import FlatNetwork, _sigmoid, flat_buffer
from .errors import InconsistentSequenceLength, TooFewSamples
from .spec import Spec, count


@dataclass(frozen=True)
class StackerSpec(Spec):
    hidden: int = 20
    epochs: int = 50
    batch_size: int = 20
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    RULES = {"hidden": count(1), **{name: PARAM_RULES[name] for name in (
        "epochs", "batch_size", "lr", "beta1", "beta2", "adam_eps")}}


class LstmStacker(FlatNetwork):
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

    # -- forward / backward --------------------------------------------------

    def forward(self, X: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None
                ) -> tuple[np.ndarray, list[dict]]:
        """X: (batch, T) score sequences. Returns (logits, caches). The
        stacker has no dropout or batch statistics, so ``train`` and
        ``rng`` are ignored."""
        B, T = X.shape
        H = self.hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        x_in = X[:, :, None] * self.Wx
        caches = []
        for t in range(T):
            pre = x_in[:, t] + h @ self.Wh + self.bias
            gates = _sigmoid(pre)
            i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 3 * H:]
            g = np.tanh(pre[:, 2 * H:3 * H])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            caches.append({"x": X[:, t], "h_prev": h, "c_prev": c,
                           "gates": gates, "g": g, "tanh_c": tanh_c})
            h, c = h_new, c_new
        z = h @ self.w_out + self.b_out
        caches.append({"h_final": h})
        return z, caches

    def backward(self, caches: list[dict], z: np.ndarray, y: np.ndarray,
                 grad: tuple[np.ndarray, list[np.ndarray]] | None = None
                 ) -> np.ndarray:
        """Flat gradient of mean BCE over the batch, laid out like
        ``params``. It is written into ``grad``, a ``_buffer()`` pair that
        the caller owns and may pass again on the next step (it is zeroed
        first), or into a new buffer when ``grad`` is None."""
        B = len(y)
        H = self.hidden
        buffer, (dWx, dWh, dbias, d_w_out, d_b_out) = grad or self._buffer()
        buffer.fill(0.0)
        dz = (_sigmoid(z) - y) / B
        np.matmul(caches[-1]["h_final"].T, dz, out=d_w_out)
        d_b_out[0] = dz.sum()
        dh = dz[:, None] * self.w_out[None, :]
        dc = np.zeros((B, H))
        # the loss gradient at each gate's output, in the packed gate
        # order; the cell block's sigmoid-derivative product is then
        # overwritten by its tanh derivative
        dgates = np.empty((B, 4 * H))
        di, df = dgates[:, :H], dgates[:, H:2 * H]
        dg, do = dgates[:, 2 * H:3 * H], dgates[:, 3 * H:]
        steps = caches[:-1]
        for t in range(len(steps) - 1, -1, -1):
            cache = steps[t]
            gates, g, tanh_c = cache["gates"], cache["g"], cache["tanh_c"]
            i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 3 * H:]
            np.multiply(dh, tanh_c, out=do)
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            np.multiply(dc, g, out=di)
            np.multiply(dc, cache["c_prev"], out=df)
            np.multiply(dc, i, out=dg)
            dpre = dgates * gates * (1.0 - gates)
            dpre[:, 2 * H:3 * H] = dg * (1.0 - g ** 2)
            dWx += cache["x"] @ dpre
            dWh += cache["h_prev"].T @ dpre
            dbias += np.add.reduce(dpre, axis=0)
            if t > 0:
                dh = dpre @ self.Wh.T
                dc = dc * f
        return buffer


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
    rng = np.random.default_rng(spec.seed % 2 ** 32)   # as ClassifierSpec
    net = LstmStacker(spec.hidden, rng=rng)
    net.fit(X, y, rng, spec.epochs, spec.batch_size, spec.lr, spec.beta1,
            spec.beta2, spec.adam_eps)
    return net


def stack_score(net: LstmStacker, sequences) -> np.ndarray:
    """Aggregated genuine-score per sequence."""
    X = _as_sequence_matrix(sequences)
    return net.predict(X)
