"""Minimal float64 neural network kernel with per-sample gradients.

Everything here exists so that DP-SGD can clip gradients per sample, and
no layer ever mixes information across samples (normalization is per
sample, per group).  Training clips from ghost norms: ``backward_pairs``
backpropagates one batch and returns, for every Dense and GroupNorm
layer, the layer input and output gradient that its per-sample parameter
gradients are built from, and ``privacy.ghost_clip`` computes norms and
the clipped sum from those pairs without forming a (batch, n_params)
matrix.  ``backward(per_sample=True)``, which keeps the batch axis all
the way through and does form that matrix, is kept as the reference the
ghost norms are tested against.  Determinism matters more than speed:
given the same seed, forward, backward and initialization are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


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


class Layer:
    """Base layer: owns a contiguous slice of the network's flat parameters."""

    n_params: int = 0
    out_dim: int | None = None

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.empty(0, dtype=np.float64)

    def forward(self, p: np.ndarray, x: np.ndarray, mode: str, rng):
        raise NotImplementedError

    def backward(self, p, cache, gy, grad_out, per_sample: bool) -> np.ndarray:
        """Return dL/dx; fill grad_out with parameter gradients.

        grad_out is a (batch, n_params) slice in per-sample mode or a
        (n_params,) slice holding the batch-mean gradient otherwise.
        """
        raise NotImplementedError

    def backward_pairs(self, p, cache, gy, start: int, pairs: list) -> np.ndarray:
        """Return dL/dx; append a GradPair per parametrized layer to pairs."""
        return self.backward(p, cache, gy, None, False)

    def to_spec(self) -> dict:
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.n_params = out_dim * in_dim + out_dim

    def init_params(self, rng):
        # Glorot-style: weights ~ N(0, 2 / (in + out)), biases zero.
        std = math.sqrt(2.0 / (self.in_dim + self.out_dim))
        w = rng.normal(0.0, std, size=(self.out_dim, self.in_dim))
        return np.concatenate([w.ravel(), np.zeros(self.out_dim)])

    def _weights(self, p):
        split = self.out_dim * self.in_dim
        return p[:split].reshape(self.out_dim, self.in_dim), p[split:]

    def forward(self, p, x, mode, rng):
        w, b = self._weights(p)
        return x @ w.T + b, x

    def backward(self, p, cache, gy, grad_out, per_sample):
        x = cache
        w, _ = self._weights(p)
        split = self.out_dim * self.in_dim
        if per_sample:
            grad_out[:, :split] = (gy[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)
            grad_out[:, split:] = gy
        else:
            batch = x.shape[0]
            grad_out[:split] = (gy.T @ x).ravel() / batch
            grad_out[split:] = gy.mean(axis=0)
        return gy @ w

    def backward_pairs(self, p, cache, gy, start, pairs):
        pairs.append(GradPair(self, start, cache, gy))
        w, _ = self._weights(p)
        return gy @ w

    def to_spec(self):
        return {"type": "dense", "in": self.in_dim, "out": self.out_dim}


class Relu(Layer):
    def forward(self, p, x, mode, rng):
        return np.maximum(x, 0.0), x > 0.0

    def backward(self, p, cache, gy, grad_out, per_sample):
        return gy * cache

    def to_spec(self):
        return {"type": "relu"}


class LeakyRelu(Layer):
    def __init__(self, slope: float = 0.2):
        self.slope = slope

    def forward(self, p, x, mode, rng):
        pos = x > 0.0
        return np.where(pos, x, self.slope * x), pos

    def backward(self, p, cache, gy, grad_out, per_sample):
        return np.where(cache, gy, self.slope * gy)

    def to_spec(self):
        return {"type": "leaky_relu", "slope": self.slope}


class Sigmoid(Layer):
    def forward(self, p, x, mode, rng):
        y = 1.0 / (1.0 + np.exp(-x))
        return y, y

    def backward(self, p, cache, gy, grad_out, per_sample):
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

    def backward(self, p, cache, gy, grad_out, per_sample):
        return gy if cache is None else gy * cache

    def to_spec(self):
        return {"type": "dropout", "rate": self.rate}


class GroupNorm(Layer):
    """Per-sample group normalization with a learned affine transform.

    Channels are split into 8 groups when divisible by 8, otherwise a
    single group (plain layer norm).  Statistics never cross samples, so
    per-sample gradients stay exact.

    The kernels are one-pass over each group of k channels.  ``forward``
    centres once with the group ``sum / k``, takes the variance of the
    centred values with one ``einsum`` and scales them to x̂ in place.
    ``_input_grad`` forms ĝ = gy·γ and subtracts its group mean and
    x̂⟨ĝ, x̂⟩/k, both reduced once, before scaling by 1/σ in place.  Only
    arrays a kernel allocated itself are written in place: the input, the
    incoming gradient and the cached ``(xhat, inv_std)`` are never written
    after ``forward`` returns, because ``backward_pairs`` hands ``xhat`` and
    ``gy`` on to ``privacy.ghost_clip``.
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

    def forward(self, p, x, mode, rng):
        gamma = p[: self.channels]
        delta = p[self.channels :]
        b = x.shape[0]
        k = self.channels // self.groups
        xg = x.reshape(b, self.groups, k)
        centred = xg - xg.sum(axis=2, keepdims=True) / k
        var = np.einsum("bgk,bgk->bg", centred, centred) / k
        inv_std = (1.0 / np.sqrt(var + self.EPS))[:, :, None]
        centred *= inv_std
        xhat = centred.reshape(b, self.channels)
        y = xhat * gamma
        y += delta
        return y, (xhat, inv_std)

    def backward(self, p, cache, gy, grad_out, per_sample):
        xhat = cache[0]
        if per_sample:
            grad_out[:, : self.channels] = gy * xhat
            grad_out[:, self.channels :] = gy
        else:
            batch = gy.shape[0]
            grad_out[: self.channels] = np.einsum("bc,bc->c", gy, xhat) / batch
            grad_out[self.channels :] = gy.sum(axis=0) / batch
        return self._input_grad(p, cache, gy)

    def backward_pairs(self, p, cache, gy, start, pairs):
        pairs.append(GradPair(self, start, cache[0], gy))
        return self._input_grad(p, cache, gy)

    def _input_grad(self, p, cache, gy):
        xhat, inv_std = cache
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

    def to_spec(self):
        return {"type": "group_norm", "channels": self.channels, "groups": self.groups}


class ResidualConcatBlock(Layer):
    """Dense -> GroupNorm -> ReLU, output concatenated with the input.

    Widens the representation instead of adding a skip: out = [x, h(x)].
    """

    def __init__(self, in_dim: int, width: int = 128):
        self.in_dim = in_dim
        self.width = width
        self.out_dim = in_dim + width
        self.inner = [Dense(in_dim, width), GroupNorm(width), Relu()]
        self.n_params = sum(l.n_params for l in self.inner)

    def _slices(self):
        offsets = []
        start = 0
        for layer in self.inner:
            offsets.append(slice(start, start + layer.n_params))
            start += layer.n_params
        return offsets

    def init_params(self, rng):
        return np.concatenate([l.init_params(rng) for l in self.inner])

    def forward(self, p, x, mode, rng):
        h = x
        caches = []
        for layer, sl in zip(self.inner, self._slices()):
            h, cache = layer.forward(p[sl], h, mode, rng)
            caches.append(cache)
        return np.concatenate([x, h], axis=1), caches

    def backward(self, p, cache, gy, grad_out, per_sample):
        gx_direct = gy[:, : self.in_dim]
        gh = gy[:, self.in_dim :]
        slices = self._slices()
        for layer, sl, layer_cache in zip(
            reversed(self.inner), reversed(slices), reversed(cache)
        ):
            sub = grad_out[:, sl] if per_sample else grad_out[sl]
            gh = layer.backward(p[sl], layer_cache, gh, sub, per_sample)
        return gx_direct + gh

    def backward_pairs(self, p, cache, gy, start, pairs):
        gh = gy[:, self.in_dim :]
        for layer, sl, layer_cache in zip(
            reversed(self.inner), reversed(self._slices()), reversed(cache)
        ):
            gh = layer.backward_pairs(p[sl], layer_cache, gh, start + sl.start, pairs)
        return gy[:, : self.in_dim] + gh

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
        self.layers = layers
        self.slices: list[slice] = []
        start = 0
        for layer in layers:
            self.slices.append(slice(start, start + layer.n_params))
            start += layer.n_params
        if params is not None:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (start,):
                raise ValueError(f"expected {start} parameters, got {params.shape}")
            self.params = params.copy()
        elif rng is not None:
            self.params = np.concatenate(
                [layer.init_params(rng) for layer in layers]
            ) if start else np.empty(0)
        else:
            raise ValueError("need either an rng or an explicit parameter vector")

    @property
    def n_params(self) -> int:
        return self.params.shape[0]

    def forward(self, x: np.ndarray, mode: str = "train", rng=None):
        """Run the stack; returns (output, caches) for a later backward."""
        h = np.asarray(x, dtype=np.float64)
        caches = []
        for layer, sl in zip(self.layers, self.slices):
            h, cache = layer.forward(self.params[sl], h, mode, rng)
            caches.append(cache)
        return h, caches

    def backward(self, caches, loss_grads: np.ndarray, per_sample: bool = True):
        """Backpropagate per-sample loss gradients.

        loss_grads holds d(loss_i)/d(output_i) row by row.  Returns
        (param_grads, input_grads) where param_grads is (batch, n_params)
        in per-sample mode — row i is the gradient of sample i's own loss
        — or the (n_params,) batch-mean gradient otherwise.
        """
        batch = loss_grads.shape[0]
        if per_sample:
            grads = np.zeros((batch, self.n_params))
        else:
            grads = np.zeros(self.n_params)
        gy = np.asarray(loss_grads, dtype=np.float64)
        for layer, sl, cache in zip(
            reversed(self.layers), reversed(self.slices), reversed(caches)
        ):
            out = grads[:, sl] if per_sample else grads[sl]
            gy = layer.backward(self.params[sl], cache, gy, out, per_sample)
        return grads, gy

    def backward_pairs(self, caches, loss_grads: np.ndarray):
        """Backpropagate without forming any parameter gradient.

        Returns (pairs, input_grads): one GradPair per Dense and GroupNorm
        layer, output layer first, from which per-sample gradient norms
        and clipped sums follow (see ``privacy.ghost_clip``).
        """
        pairs: list[GradPair] = []
        gy = np.asarray(loss_grads, dtype=np.float64)
        for layer, sl, cache in zip(
            reversed(self.layers), reversed(self.slices), reversed(caches)
        ):
            gy = layer.backward_pairs(self.params[sl], cache, gy, sl.start, pairs)
        return pairs, gy

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
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
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


def build_critic(in_dim: int, rng: np.random.Generator, hidden: int = 256,
                 dropout: float = 0.5, slope: float = 0.2,
                 sigmoid_output: bool = False) -> Network:
    """Three dense layers with LeakyReLU/Dropout, scalar output.

    The sigmoid stays off for Wasserstein-style critics and is only added
    for a vanilla GAN discriminator.
    """
    layers: list[Layer] = [
        Dense(in_dim, hidden), LeakyRelu(slope), Dropout(dropout),
        Dense(hidden, hidden), LeakyRelu(slope), Dropout(dropout),
        Dense(hidden, 1),
    ]
    if sigmoid_output:
        layers.append(Sigmoid())
    return Network(layers, rng=rng)
