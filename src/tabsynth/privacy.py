"""Gradient privatization: per-sample clipping, noising, Poisson batches.

The update rule is the usual one: clip every per-sample gradient to L2
norm C, sum, add N(0, C^2 sigma^2 I) noise to the sum, divide by the
batch size.  Batches are Poisson subsamples so the accountant's
subsampling amplification applies; empty batches are simply skipped and
never charged.

Both trainers run their batch loop (draw, budget halt, update, ledger,
log) through one ``TrainingDriver``, only build their forward passes and
both return the driver's ``TrainedModel`` record.  Their config classes
subclass ``ModelConfig``, which declares the options they share and checks
every numeric option's range; the CLI and the benchmark sweep build
``PrivacyParams`` with ``build_privacy``.  Private updates come
from ``dp_sgd_step``, which clips from ghost norms (``ghost_clip``): each
sample's gradient norm and the clipped sum come from the ``GradPair``s of
``Network.backward_pairs``, stacked over the passes per Dense layer, and
each layer's own ``rows`` formula, so no (batch, n_params) matrix is built.
``clip_per_sample`` and ``privatize_batch_gradient`` apply the same rule to
the per-sample matrix that ``Network.backward`` builds from the same pairs,
and are kept as the reference the step is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .accountant import (RdpLedger, accumulate_step, count_step, fresh_ledger,
                         to_epsilon_delta)
from .errors import ConfigError, PrivacyError, check_number_fields
from .nn import AdamState, Network, adam_step

if TYPE_CHECKING:
    from .encoding import ColumnSpan, EncodedMatrix
    from .schema import TableSchema

# Defaults of the CLI and the benchmark sweep.
DEFAULT_DELTA = 1e-5
DEFAULT_CLIP_NORM = 1.0


@dataclass(frozen=True)
class PrivacyParams:
    epsilon_target: float
    delta: float
    sigma: float
    clip_norm: float
    sample_rate: float

    def __post_init__(self) -> None:
        check_number_fields(self)
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
    come with pre-scaled loss gradients).  A Dense layer's ``GradPair``s are
    stacked over the T passes into a (T, batch, in) and g (T, batch, out),
    and its leading block of g⊗a gradients gets its norm from the Gram trick,

        |G_i^outer|^2 = sum_{t,s} (a_{i,t} . a_{i,s}) (g_{i,t} . g_{i,s}),

    the product of a's and g's (batch, T, T) Grams, and the trailing
    block's rows, sum_t ``layer.rows(a_t, g_t)``, are formed directly.
    The clipped sum is sum_i c_i G_i with c_i = 1 / max(1, |G_i| / C): one
    GEMM per leading block of c·g and a, the passes laid along the batch
    axis, and c @ rows.  Returns (norms, clipped_sum), (batch,) and (n_params,).
    """
    if clip_norm <= 0.0:
        raise PrivacyError(f"clipping norm must be positive, got {clip_norm}")
    per_pass = [net.backward_pairs(caches, loss_grads)[0] for caches, loss_grads in passes]
    squared = np.zeros(per_pass[0][0].g.shape[0])
    layers = []
    for pairs in zip(*per_pass):
        layer, start = pairs[0].layer, pairs[0].start
        a = g = None
        if layer.n_outer:
            a = np.stack([pair.a for pair in pairs])
            g = np.stack([pair.g for pair in pairs])
            squared += np.einsum("bts,bts->b", np.einsum("tbi,sbi->bts", a, a),
                                 np.einsum("tbi,sbi->bts", g, g))
        rows = sum(layer.rows(pair.a, pair.g) for pair in pairs)
        squared += np.einsum("bi,bi->b", rows, rows)
        layers.append((layer, start, a, g, rows))
    norms = np.sqrt(squared)
    scale = 1.0 / np.maximum(1.0, norms / clip_norm)

    clipped = np.zeros(net.n_params)
    for layer, start, a, g, rows in layers:
        split = start + layer.n_outer
        if layer.n_outer:
            scaled = (g * scale[:, None]).reshape(-1, g.shape[2])
            clipped[start:split] = (scaled.T @ a.reshape(-1, a.shape[2])).ravel()
        clipped[split:start + layer.n_params] = scale @ rows
    return norms, clipped


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


def build_privacy(epsilon, delta: float, sigma, clip_norm: float, batch_target: int,
                  n_rows: int) -> PrivacyParams | None:
    """PrivacyParams at q = min(1, batch_target / n_rows), or None without a
    budget; a sigma of None means ``gaussian_sigma(epsilon, delta)``."""
    if epsilon is None:
        return None
    sigma = gaussian_sigma(epsilon, delta) if sigma is None else sigma
    return PrivacyParams(epsilon, delta, sigma, clip_norm, min(1.0, batch_target / n_rows))


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


@dataclass(frozen=True)
class ModelConfig:
    """The options every model kind reads, and the range rule of every numeric
    option, a subclass's too: > 0, but ``blocks`` >= 0 (a head-only generator)."""

    batch_target: int = 512
    epochs: int = 300
    width: int = 128
    blocks: int = 2
    privacy: PrivacyParams | None = None

    def __post_init__(self) -> None:
        check_number_fields(self, positive=True, zero_ok=("blocks",))


@dataclass
class TrainedModel:
    """One trained model of any kind, as a trainer returns it and a bundle
    stores it.  ``generator`` is the network that samples; ``critic`` and
    ``adam_critic`` are None except for the DP-WGAN."""

    kind: str
    schema: TableSchema
    spans: tuple[ColumnSpan, ...]
    config: ModelConfig
    seed: int
    generator: Network
    adam: AdamState
    ledger: RdpLedger
    epsilon_spent: float | None
    log: list[dict] = field(default_factory=list)
    halted_on_budget: bool | None = False  # None: loaded from a bundle, which does not store it
    critic: Network | None = None
    adam_critic: AdamState | None = None

    @property
    def delta(self) -> float | None:
        return self.config.privacy.delta if self.config.privacy else None


class TrainingDriver:
    """The batch loop both trainers share, around the network ``net``.

    ``draws`` yields Poisson batches, ``add`` takes each forward pass over
    the batch and ``apply`` makes one Adam step of ``net`` from them: in a
    private run through ``dp_sgd_step`` and a ledger charge, otherwise from
    the batch gradients, each backpropagated when its pass is added.
    ``trained`` ends the run with its record.
    """

    def __init__(self, net: Network, lr: float, privacy: PrivacyParams | None,
                 batch_target: int, n_rows: int, rng: np.random.Generator):
        self.net, self.lr, self.privacy, self.rng, self.n_rows = net, lr, privacy, rng, n_rows
        self.q = privacy.sample_rate if privacy else min(1.0, batch_target / n_rows)
        self.adam, self.ledger = AdamState.zeros(net.n_params), fresh_ledger()
        self.epsilon = to_epsilon_delta(self.ledger, privacy.delta) if privacy else None
        self.log: list[dict] = []
        self.batch, self.halted = 0, False
        self._passes, self._grad = [], np.zeros(net.n_params)

    def draws(self, count: int):
        """Up to ``count`` Poisson batches of row indices.  An empty draw is
        skipped and never charged; before a batch whose step would pass the
        budget, ``halted`` is set and the draws stop."""
        for _ in range(count):
            idx = poisson_sample(self.n_rows, self.q, self.rng)
            if idx.size == 0:
                continue
            if self.privacy is not None and budget_exhausted(self.ledger, self.privacy):
                self.halted = True
                return
            yield idx

    def add(self, caches, loss_grads: np.ndarray) -> None:
        if self.privacy is not None:
            self._passes.append((caches, loss_grads))
        else:
            self._grad += self.net.backward(caches, loss_grads, per_sample=False)[0]

    def apply(self, divisor: int, loss: float, epoch: int, kind: str) -> None:
        """One update from the passes added since the last call, their
        gradients divided by ``divisor``, and its log row."""
        if self.privacy is not None:
            passes = [(caches, grads / divisor) for caches, grads in self._passes]
            update, self.ledger = dp_sgd_step(self.net, passes, self.ledger,
                                              self.privacy, self.rng)
            self.epsilon = to_epsilon_delta(self.ledger, self.privacy.delta)
            self._passes = []
        else:
            update = self._grad / divisor
            self._grad.fill(0.0)
            self.ledger = count_step(self.ledger)
        self.net.params, self.adam = adam_step(self.net.params, update, self.adam, self.lr)
        self.record(epoch, kind, loss)
        self.batch += 1

    def record(self, epoch: int, kind: str, loss: float) -> None:
        """Log one row; a loss that is not finite stops a diverged run here."""
        if not math.isfinite(loss):
            raise ConfigError(f"training diverged: the {kind} loss is {loss} at epoch {epoch}, "
                              f"batch {self.batch}; lower the learning rate (lr)")
        self.log.append({"epoch": epoch, "batch": self.batch, "kind": kind,
                         "loss": loss, "epsilon": self.epsilon})

    def trained(self, kind: str, matrix: EncodedMatrix, config, seed: int, generator: Network,
                adam: AdamState, critic: Network | None = None) -> TrainedModel:
        """The run's record; the driver's network is the critic when one is
        given, else ``generator``.  A parameter or Adam moment that is not
        finite is a ConfigError, so a diverged run saves nothing."""
        adam_critic = self.adam if critic is not None else None
        for name, net, state in (("generator", generator, adam), ("critic", critic, adam_critic)):
            if net is not None and not all(np.isfinite(a).all()
                                           for a in (net.params, state.m, state.v)):
                raise ConfigError(f"training diverged: the {name} holds non-finite parameters "
                                  "or Adam moments; lower the learning rate (lr)")
        return TrainedModel(kind, matrix.schema, matrix.spans, config, seed, generator, adam,
                            self.ledger, self.epsilon, self.log, self.halted, critic, adam_critic)
