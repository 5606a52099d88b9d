"""Minimal float64 neural network kernel with per-sample gradients.

Everything here exists so that DP-SGD can clip gradients per sample, and
no layer ever mixes information across samples (normalization is per
sample, per group).  ``Sequential`` is the one forward and backward walk
over a layer list, run by ``Network`` and by each ``ResidualConcatBlock``.
Every layer implements ``backward_pairs``, the one backward step: it
returns the input gradient and, for a Dense or GroupNorm layer, appends a
``GradPair``: the layer input and output gradient that its per-sample
parameter gradients are built from.  ``Layer.backward`` turns pairs into
the batch-mean gradient or the (batch, n_params) per-sample matrix, the
reference the ghost norms of ``privacy.ghost_clip`` are tested against.
Sampling runs a generator through an ``EvalWorkspace``, whose passes write
every activation into buffers allocated once; ``Network.forward`` in eval
mode is its reference.
Determinism matters more than speed: given the same seed, forward,
backward and initialization are bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Rows per block of ``map_rows``, and so of a sampling call's
# ``EvalWorkspace``.  The workspace is allocated once per call and every
# pass of every block runs through its buffers, so the activations take one
# block's memory (6.3 MB for the benchmark's widest generator, 200 encoded
# features: 456 activation, 128 hidden and 200 output columns) and no pass
# allocates or faults in a fresh activation array, however many rows are
# asked for.  Smaller blocks send OpenBLAS down other kernel paths: 512 rows
# changed samples by 9.7e-15, while 1,024 gave bytes identical to one pass
# over every row.
ROW_BLOCK = 1024


def map_rows(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` over consecutive ``ROW_BLOCK``-row slices of ``x``, in one array.

    Valid for any ``fn`` whose output row i depends on input row i alone,
    as every network here computes: no layer mixes samples.  ``fn``'s result
    is copied out before its next call, so it may be a workspace's buffer.
    """
    first = fn(x[:ROW_BLOCK])
    out = np.empty((x.shape[0],) + first.shape[1:])
    out[:ROW_BLOCK] = first
    for start in range(ROW_BLOCK, x.shape[0], ROW_BLOCK):
        out[start : start + ROW_BLOCK] = fn(x[start : start + ROW_BLOCK])
    return out


class GradPair(NamedTuple):
    """What one pass's backprop knows about one parametrized layer.

    ``a`` is the Dense layer's input, or the GroupNorm layer's normalized
    input; ``g`` is the loss gradient w.r.t. the layer's output.  Both are
    (batch, width) and together determine every per-sample parameter
    gradient of the layer.  ``start`` is the layer's offset in the flat
    parameter vector.
    """

    layer: "Layer"
    start: int
    a: np.ndarray
    g: np.ndarray

    def write(self, grads: np.ndarray, per_sample: bool) -> None:
        """Fill the layer's slice of (batch, n_params) or batch-mean ``grads``."""
        layer, a, g = self.layer, self.a, self.g
        out = grads[..., self.start : self.start + layer.n_params]
        split = layer.n_outer
        if per_sample:
            if split:
                out[:, :split] = (g[:, :, None] * a[:, None, :]).reshape(g.shape[0], -1)
            out[:, split:] = layer.rows(a, g)
        else:
            if split:
                out[:split] = (g.T @ a).ravel() / g.shape[0]
            layer.mean_rows(a, g, out[split:])


class Layer:
    """Base layer: owns a contiguous slice of the network's flat parameters.

    Every layer implements ``forward`` and ``backward_pairs``, and every
    layer but ``Sequential`` implements ``to_spec``.
    A parametrized layer's first ``n_outer`` parameters have per-sample
    gradient g⊗a; ``rows(a, g)`` forms the rest's, ``mean_rows`` its mean.
    """

    n_params: int = 0
    n_outer: int = 0

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.empty(0, dtype=np.float64)

    def forward(self, p: np.ndarray, x: np.ndarray, mode: str, rng):
        raise NotImplementedError

    def backward_pairs(self, p, cache, gy, start: int, pairs: list) -> np.ndarray:
        """Return dL/dx; append a GradPair per parametrized layer to pairs."""
        raise NotImplementedError

    def backward(self, p, cache, gy, grad_out, per_sample: bool) -> np.ndarray:
        """Return dL/dx; fill grad_out with parameter gradients.

        grad_out is a (batch, n_params) slice in per-sample mode or a
        (n_params,) slice holding the batch-mean gradient otherwise.
        """
        pairs: list[GradPair] = []
        gx = self.backward_pairs(p, cache, gy, 0, pairs)
        for pair in pairs:
            pair.write(grad_out, per_sample)
        return gx

    def to_spec(self) -> dict:
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.n_outer = out_dim * in_dim
        self.n_params = self.n_outer + out_dim

    def init_params(self, rng):
        # Glorot-style: weights ~ N(0, 2 / (in + out)), biases zero.
        std = math.sqrt(2.0 / (self.in_dim + self.out_dim))
        w = rng.normal(0.0, std, size=(self.out_dim, self.in_dim))
        return np.concatenate([w.ravel(), np.zeros(self.out_dim)])

    def _weights(self, p):
        return p[: self.n_outer].reshape(self.out_dim, self.in_dim), p[self.n_outer :]

    def forward(self, p, x, mode, rng):
        w, b = self._weights(p)
        return x @ w.T + b, x

    def backward_pairs(self, p, cache, gy, start, pairs):
        pairs.append(GradPair(self, start, cache, gy))
        w, _ = self._weights(p)
        return gy @ w

    def rows(self, a, g):
        return g

    def mean_rows(self, a, g, out):
        out[:] = g.mean(axis=0)

    def to_spec(self):
        return {"type": "dense", "in": self.in_dim, "out": self.out_dim}


class Relu(Layer):
    def forward(self, p, x, mode, rng):
        return np.maximum(x, 0.0), x > 0.0

    def backward_pairs(self, p, cache, gy, start, pairs):
        return gy * cache

    def to_spec(self):
        return {"type": "relu"}


class LeakyRelu(Layer):
    def __init__(self, slope: float = 0.2):
        self.slope = slope

    def forward(self, p, x, mode, rng):
        pos = x > 0.0
        return np.where(pos, x, self.slope * x), pos

    def backward_pairs(self, p, cache, gy, start, pairs):
        return np.where(cache, gy, self.slope * gy)

    def to_spec(self):
        return {"type": "leaky_relu", "slope": self.slope}


class Sigmoid(Layer):
    def forward(self, p, x, mode, rng):
        y = 1.0 / (1.0 + np.exp(-x))
        return y, y

    def backward_pairs(self, p, cache, gy, start, pairs):
        y = cache
        return gy * y * (1.0 - y)

    def to_spec(self):
        return {"type": "sigmoid"}


class Dropout(Layer):
    """Inverted dropout: active only in train mode, identity in eval."""

    def __init__(self, rate: float = 0.5):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, p, x, mode, rng):
        if mode != "train" or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward_pairs(self, p, cache, gy, start, pairs):
        return gy if cache is None else gy * cache

    def to_spec(self):
        return {"type": "dropout", "rate": self.rate}


class GroupNorm(Layer):
    """Per-sample group normalization with a learned affine transform.

    Channels are split into 8 groups when divisible by 8, otherwise a
    single group (plain layer norm).  Statistics never cross samples, so
    per-sample gradients stay exact.

    The kernels are one-pass over each group of k channels.  ``normalize``
    centres once with the group ``sum / k``, takes the variance of the
    centred values with one ``einsum`` and scales them to x̂ in place; it is
    the statistics of ``forward`` and of ``EvalWorkspace``'s passes.
    ``backward_pairs`` forms ĝ = gy·γ and subtracts its group mean and
    x̂⟨ĝ, x̂⟩/k, both reduced once, before scaling by 1/σ in place.  Only
    arrays a kernel allocated itself, or was handed as ``out``, are written
    in place: the input, the incoming gradient and the cached
    ``(xhat, inv_std)`` are never written after ``forward`` returns, because
    ``backward_pairs`` hands ``xhat`` and ``gy`` on to ``privacy.ghost_clip``.
    """

    EPS = 1e-5

    def __init__(self, channels: int, groups: int | None = None):
        if groups is None:
            groups = 8 if channels % 8 == 0 else 1
        if channels % groups != 0:
            raise ValueError(f"{groups} groups do not divide {channels} channels")
        self.channels = channels
        self.groups = groups
        self.n_params = 2 * channels

    def init_params(self, rng):
        return np.concatenate([np.ones(self.channels), np.zeros(self.channels)])

    def normalize(self, x: np.ndarray, out: np.ndarray | None = None):
        """x̂ of the (batch, channels) ``x`` into ``out`` (a new array by
        default; ``out=x`` normalizes in place), and 1/σ, (batch, groups, 1)."""
        b = x.shape[0]
        k = self.channels // self.groups
        xg = x.reshape(b, self.groups, k)
        centred = np.subtract(xg, xg.sum(axis=2, keepdims=True) / k,
                              out=None if out is None else out.reshape(b, self.groups, k))
        var = np.einsum("bgk,bgk->bg", centred, centred) / k
        inv_std = (1.0 / np.sqrt(var + self.EPS))[:, :, None]
        centred *= inv_std
        return centred.reshape(b, self.channels), inv_std

    def forward(self, p, x, mode, rng):
        xhat, inv_std = self.normalize(x)
        y = xhat * p[: self.channels]
        y += p[self.channels :]
        return y, (xhat, inv_std)

    def backward_pairs(self, p, cache, gy, start, pairs):
        xhat, inv_std = cache
        pairs.append(GradPair(self, start, xhat, gy))
        gamma = p[: self.channels]
        b = gy.shape[0]
        k = self.channels // self.groups
        ghat = (gy * gamma).reshape(b, self.groups, k)
        xh = xhat.reshape(b, self.groups, k)
        mean = ghat.sum(axis=2, keepdims=True) / k
        proj = np.einsum("bgk,bgk->bg", ghat, xh)[:, :, None] / k
        ghat -= mean
        ghat -= xh * proj
        ghat *= inv_std
        return ghat.reshape(b, self.channels)

    def rows(self, a, g):
        return np.concatenate([g * a, g], axis=1)

    def mean_rows(self, a, g, out):
        batch = g.shape[0]
        out[: self.channels] = np.einsum("bc,bc->c", g, a) / batch
        out[self.channels :] = g.sum(axis=0) / batch

    def to_spec(self):
        return {"type": "group_norm", "channels": self.channels, "groups": self.groups}


class Sequential(Layer):
    """A layer list over consecutive parameter slices; never serialized."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        ends = list(itertools.accumulate((layer.n_params for layer in layers), initial=0))
        self.slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        self.n_params = ends[-1]

    def init_params(self, rng):
        parts = [layer.init_params(rng) for layer in self.layers]
        return np.concatenate(parts) if parts else np.empty(0)

    def forward(self, p, x, mode, rng):
        caches = []
        for layer, sl in zip(self.layers, self.slices):
            x, cache = layer.forward(p[sl], x, mode, rng)
            caches.append(cache)
        return x, caches

    def backward_pairs(self, p, cache, gy, start, pairs):
        for layer, sl, c in zip(reversed(self.layers), reversed(self.slices), reversed(cache)):
            gy = layer.backward_pairs(p[sl], c, gy, start + sl.start, pairs)
        return gy


class ResidualConcatBlock(Layer):
    """Dense -> GroupNorm -> ReLU, output concatenated with the input.

    Widens the representation instead of adding a skip: out = [x, h(x)].
    """

    def __init__(self, in_dim: int, width: int = 128):
        self.in_dim = in_dim
        self.width = width
        self.out_dim = in_dim + width
        self.inner = Sequential([Dense(in_dim, width), GroupNorm(width), Relu()])
        self.n_params = self.inner.n_params

    def init_params(self, rng):
        return self.inner.init_params(rng)

    def forward(self, p, x, mode, rng):
        h, caches = self.inner.forward(p, x, mode, rng)
        return np.concatenate([x, h], axis=1), caches

    def backward_pairs(self, p, cache, gy, start, pairs):
        return gy[:, : self.in_dim] + self.inner.backward_pairs(
            p, cache, gy[:, self.in_dim :], start, pairs)

    def to_spec(self):
        return {"type": "residual_concat", "in": self.in_dim, "width": self.width}


_LAYER_BUILDERS = {
    "dense": lambda s: Dense(s["in"], s["out"]),
    "relu": lambda s: Relu(),
    "leaky_relu": lambda s: LeakyRelu(s["slope"]),
    "sigmoid": lambda s: Sigmoid(),
    "dropout": lambda s: Dropout(s["rate"]),
    "group_norm": lambda s: GroupNorm(s["channels"], s["groups"]),
    "residual_concat": lambda s: ResidualConcatBlock(s["in"], s["width"]),
}


def layer_from_spec(spec: dict) -> Layer:
    try:
        return _LAYER_BUILDERS[spec["type"]](spec)
    except KeyError as exc:
        raise ValueError(f"unknown layer spec {spec!r}") from exc


class Network:
    """A layer stack over one flat float64 parameter vector."""

    def __init__(self, layers: list[Layer], rng: np.random.Generator | None = None,
                 params: np.ndarray | None = None):
        self.stack = Sequential(layers)
        if params is not None:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (self.stack.n_params,):
                raise ValueError(f"expected {self.stack.n_params} parameters, got {params.shape}")
            self.params = params.copy()
        elif rng is not None:
            self.params = self.stack.init_params(rng)
        else:
            raise ValueError("need either an rng or an explicit parameter vector")

    @property
    def layers(self) -> list[Layer]:
        return self.stack.layers

    @property
    def n_params(self) -> int:
        return self.params.shape[0]

    def forward(self, x: np.ndarray, mode: str = "train", rng=None):
        """Run the stack; returns (output, caches) for a later backward."""
        return self.stack.forward(self.params, np.asarray(x, dtype=np.float64), mode, rng)

    def backward(self, caches, loss_grads: np.ndarray, per_sample: bool = True):
        """Backpropagate per-sample loss gradients.

        loss_grads holds d(loss_i)/d(output_i) row by row.  Returns
        (param_grads, input_grads) where param_grads is (batch, n_params)
        in per-sample mode — row i is the gradient of sample i's own loss
        — or the (n_params,) batch-mean gradient otherwise.
        """
        gy = np.asarray(loss_grads, dtype=np.float64)
        grads = np.zeros((gy.shape[0], self.n_params) if per_sample else self.n_params)
        gx = self.stack.backward(self.params, caches, gy, grads, per_sample)
        return grads, gx

    def backward_pairs(self, caches, loss_grads: np.ndarray):
        """Backpropagate without forming any parameter gradient.

        Returns (pairs, input_grads): one GradPair per Dense and GroupNorm
        layer, output layer first, from which per-sample gradient norms
        and clipped sums follow (see ``privacy.ghost_clip``).
        """
        pairs: list[GradPair] = []
        gy = np.asarray(loss_grads, dtype=np.float64)
        return pairs, self.stack.backward_pairs(self.params, caches, gy, 0, pairs)

    def layer_specs(self) -> list[dict]:
        return [layer.to_spec() for layer in self.layers]

    @staticmethod
    def from_specs(specs: list[dict], params: np.ndarray) -> "Network":
        return Network([layer_from_spec(s) for s in specs], params=params)


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(n: int) -> "AdamState":
        return AdamState(np.zeros(n), np.zeros(n))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), AdamState(m, v, t)


def build_generator(in_dim: int, out_dim: int, rng: np.random.Generator,
                    width: int = 128, blocks: int = 2) -> Network:
    """Widening MLP: residual-concat blocks followed by a linear head."""
    layers: list[Layer] = []
    dim = in_dim
    for _ in range(blocks):
        block = ResidualConcatBlock(dim, width)
        layers.append(block)
        dim = block.out_dim
    layers.append(Dense(dim, out_dim))
    return Network(layers, rng=rng)


def check_generator(net: Network) -> None:
    """Raise ValueError unless ``net`` is zero or more chained
    ``ResidualConcatBlock``s and one ``Dense`` head, the layout that
    ``build_generator`` makes and ``EvalWorkspace`` runs."""
    layers = net.layers
    if not (layers and isinstance(layers[-1], Dense)
            and all(isinstance(layer, ResidualConcatBlock) for layer in layers[:-1])
            and all(a.out_dim == b.in_dim for a, b in zip(layers, layers[1:]))):
        types = [spec["type"] for spec in net.layer_specs()]
        raise ValueError(f"a generator is chained residual_concat blocks and a dense "
                         f"head, not {types}")


class EvalWorkspace:
    """A generator's eval-mode pass over at most ``rows`` rows, through
    buffers allocated once and reused by every pass.

    ``acts`` holds the input in its first columns and each block's ReLU
    output in its next ``width``: a block's Dense reads the prefix before
    its own columns, so no block concatenates, and the head reads them all.
    ``hidden`` takes a block's matrix product, then its bias, GroupNorm and
    affine transform in place; ``out`` takes the head's output.  These are
    the numpy operations of ``Network.forward(mode="eval")`` in the same
    order, so the output has the same bytes.  The next pass overwrites the
    output and may overwrite the input columns.
    """

    def __init__(self, net: Network, rows: int):
        check_generator(net)
        self.net = net
        *blocks, self.head = net.layers
        self.blocks = list(zip(blocks, net.stack.slices))
        self.in_dim = net.layers[0].in_dim
        self.acts = np.empty((rows, self.head.in_dim))
        self.hidden = np.empty(rows * max((block.width for block in blocks), default=0))
        self.out = np.empty(rows * self.head.out_dim)

    def load(self, x: np.ndarray) -> np.ndarray:
        """Copy ``x`` into the input columns; returns them, for a caller that
        updates its rows in place between passes."""
        inputs = self.acts[: x.shape[0], : self.in_dim]
        inputs[...] = x
        return inputs

    def run(self, rows: int) -> np.ndarray:
        """One pass over the first ``rows`` rows of the input columns;
        returns the head's output."""
        params, acts = self.net.params, self.acts[:rows]
        for block, sl in self.blocks:
            dense, norm, _ = block.inner.layers
            dense_params, norm_params = (params[sl][s] for s in block.inner.slices[:2])
            h = self.hidden[: rows * block.width].reshape(rows, block.width)
            w, b = dense._weights(dense_params)
            np.matmul(acts[:, : block.in_dim], w.T, out=h)
            h += b
            norm.normalize(h, out=h)
            h *= norm_params[: norm.channels]
            h += norm_params[norm.channels :]
            np.maximum(h, 0.0, out=acts[:, block.in_dim : block.out_dim])
        y = self.out[: rows * self.head.out_dim].reshape(rows, self.head.out_dim)
        w, b = self.head._weights(params[self.net.stack.slices[-1]])
        np.matmul(acts, w.T, out=y)
        y += b
        return y

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run(self.load(x).shape[0])


def build_critic(in_dim: int, rng: np.random.Generator, hidden: int = 256,
                 sigmoid_output: bool = False) -> Network:
    """Three dense layers with LeakyReLU (slope 0.2) and Dropout (rate 0.5),
    scalar output.

    The sigmoid stays off for Wasserstein-style critics and is only added
    for a vanilla GAN discriminator.
    """
    layers: list[Layer] = [
        Dense(in_dim, hidden), LeakyRelu(0.2), Dropout(0.5),
        Dense(hidden, hidden), LeakyRelu(0.2), Dropout(0.5),
        Dense(hidden, 1),
    ]
    if sigmoid_output:
        layers.append(Sigmoid())
    return Network(layers, rng=rng)
