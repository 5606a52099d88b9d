"""Gradient privatization: per-sample clipping, noising, Poisson batches.

The update rule is the usual one: clip every per-sample gradient to L2
norm C, sum, add N(0, C^2 sigma^2 I) noise to the sum, divide by the
batch size.  Batches are Poisson subsamples so the accountant's
subsampling amplification applies; empty batches are simply skipped and
never charged.

Both trainers take their private updates from ``dp_sgd_step``, which
clips from ghost norms (``ghost_clip``): each sample's gradient norm and
the clipped sum come from the layer inputs and output gradients of
ordinary batch backprop, so no (batch, n_params) matrix is built.
``clip_per_sample`` and ``privatize_batch_gradient`` apply the same rule
to a materialized per-sample gradient matrix and are kept as the
reference the step is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import RdpLedger, accumulate_step, to_epsilon_delta
from .errors import PrivacyError
from .nn import Dense, Network


@dataclass(frozen=True)
class PrivacyParams:
    epsilon_target: float
    delta: float
    sigma: float
    clip_norm: float
    sample_rate: float

    def __post_init__(self) -> None:
        if self.epsilon_target <= 0.0:
            raise PrivacyError(f"epsilon target must be positive, got {self.epsilon_target}")
        if not 0.0 < self.delta < 1.0:
            raise PrivacyError(f"delta must be in (0, 1), got {self.delta}")
        if self.sigma <= 0.0:
            raise PrivacyError(f"noise multiplier must be positive, got {self.sigma}")
        if self.clip_norm <= 0.0:
            raise PrivacyError(f"clipping norm must be positive, got {self.clip_norm}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise PrivacyError(f"sample rate must be in (0, 1], got {self.sample_rate}")


def clip_per_sample(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row to L2 norm at most clip_norm: g / max(1, |g| / C)."""
    if clip_norm <= 0.0:
        raise PrivacyError(f"clipping norm must be positive, got {clip_norm}")
    grads = np.asarray(grads, dtype=np.float64)
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return grads / np.maximum(1.0, norms / clip_norm)


def privatize_batch_gradient(
    grads: np.ndarray, params: PrivacyParams, rng: np.random.Generator
) -> np.ndarray:
    """Noisy mean gradient of one batch: (sum_i clip(g_i) + noise) / B."""
    grads = np.asarray(grads, dtype=np.float64)
    batch = grads.shape[0]
    if batch == 0:
        raise PrivacyError("cannot privatize an empty batch")
    clipped = clip_per_sample(grads, params.clip_norm)
    noise = rng.normal(0.0, params.clip_norm * params.sigma, size=grads.shape[1])
    return (clipped.sum(axis=0) + noise) / batch


def ghost_clip(net: Network, passes, clip_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample gradient norms and the clipped gradient sum of one batch.

    ``passes`` holds (caches, loss_grads) pairs from ``net.forward`` over
    the same batch rows, and sample i's gradient G_i is the sum over the
    passes of the gradients of its losses (so losses to be averaged must
    come with pre-scaled loss gradients).  With a Dense layer's inputs
    x_{i,t} and output gradients g_{i,t} in pass t,

        |G_i^W|^2 = sum_{t,s} (x_{i,t} . x_{i,s}) (g_{i,t} . g_{i,s}),
        |G_i^b|^2 = |sum_t g_{i,t}|^2,

    and GroupNorm's (batch, 2C) affine gradients are formed directly.
    The clipped sum is sum_i c_i G_i with c_i = 1 / max(1, |G_i| / C),
    one GEMM per Dense layer over the passes concatenated along the batch
    axis.  Returns (norms, clipped_sum) of shapes (batch,) and (n_params,).
    """
    if clip_norm <= 0.0:
        raise PrivacyError(f"clipping norm must be positive, got {clip_norm}")
    per_pass = [net.backward_pairs(caches, loss_grads)[0] for caches, loss_grads in passes]
    batch = per_pass[0][0].g.shape[0]
    squared = np.zeros(batch)
    layers = []
    for pairs in zip(*per_pass):
        layer, start = pairs[0].layer, pairs[0].start
        a = [pair.a for pair in pairs]  # per pass: (batch, in)
        g = [pair.g for pair in pairs]  # per pass: (batch, out)
        # rows: the per-sample gradients small enough to form directly.
        if isinstance(layer, Dense):
            rows = sum(g)
            for t in range(len(pairs)):
                squared += _row_dots(a[t], a[t]) * _row_dots(g[t], g[t])
                for s in range(t):
                    squared += 2.0 * _row_dots(a[t], a[s]) * _row_dots(g[t], g[s])
            layers.append((layer, start, a, g, rows))
        else:
            rows = np.concatenate([sum(gt * at for gt, at in zip(g, a)), sum(g)], axis=1)
            layers.append((layer, start, None, None, rows))
        squared += _row_dots(rows, rows)
    norms = np.sqrt(squared)
    scale = 1.0 / np.maximum(1.0, norms / clip_norm)

    clipped = np.zeros(net.n_params)
    for layer, start, a, g, rows in layers:
        stop = start + layer.n_params
        split = stop - rows.shape[1]
        if a is not None:
            scaled = np.concatenate([gt * scale[:, None] for gt in g])
            clipped[start:split] = (scaled.T @ np.concatenate(a)).ravel()
        clipped[split:stop] = scale @ rows
    return norms, clipped


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (batch, width) arrays."""
    return np.einsum("ij,ij->i", x, y)


def dp_sgd_step(net: Network, passes, ledger: RdpLedger, params: PrivacyParams,
                rng: np.random.Generator) -> tuple[np.ndarray, RdpLedger]:
    """One private update from the forward passes over one Poisson batch.

    Returns the noisy mean gradient (sum_i clip(G_i) + noise) / |B| —
    ``privatize_batch_gradient`` of the per-sample matrix, with the same
    noise draw — and the ledger charged for one sampled Gaussian step.
    The caller checks ``budget_exhausted`` before drawing the passes.
    """
    _, clipped = ghost_clip(net, passes, params.clip_norm)
    batch = passes[0][1].shape[0]
    noise = rng.normal(0.0, params.clip_norm * params.sigma, size=net.n_params)
    update = (clipped + noise) / batch
    return update, accumulate_step(ledger, params.sample_rate, params.sigma)


def poisson_sample(n_rows: int, sample_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of a Poisson subsample: each row joins independently w.p. q."""
    if not 0.0 < sample_rate <= 1.0:
        raise PrivacyError(f"sample rate must be in (0, 1], got {sample_rate}")
    if n_rows < 1:
        raise PrivacyError(f"need at least one row, got {n_rows}")
    mask = rng.random(n_rows) < sample_rate
    return np.flatnonzero(mask)


def gaussian_sigma(epsilon: float, delta: float) -> float:
    """Classical Gaussian-mechanism calibration sigma = sqrt(2 ln(1.25/delta)) / epsilon.

    Only a reference point for picking a noise multiplier; the RDP ledger,
    not this formula, decides when a training run must stop.
    """
    if epsilon <= 0.0:
        raise PrivacyError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def budget_exhausted(ledger: RdpLedger, params: PrivacyParams) -> bool:
    """True iff charging one more step would push epsilon past the target.

    Checked before each update, so the epsilon reported at halt never
    exceeds the target.
    """
    hypothetical = accumulate_step(ledger, params.sample_rate, params.sigma)
    return to_epsilon_delta(hypothetical, params.delta) > params.epsilon_target
