"""Diffusion-style generative training over encoded tables.

Two variants share one loop.  The noise predictor learns the scaled
noise z_t = sqrt(beta_t) * xi added at each forward-diffusion step and
samples by iteratively subtracting its prediction; the denoiser learns
to reconstruct the clean batch from its noised version (mean squared
error on continuous spans, normalized KL divergence on categorical
spans) and samples by repeated application.

Every batch is used at all T noise levels and the T per-sample losses
are averaged before a single privatized update, so one batch costs one
step of privacy budget regardless of T: ``dp_sgd_step`` clips each
sample's gradient summed over the T passes, whose loss gradients are
scaled by 1/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .accountant import RdpLedger, count_step, fresh_ledger, to_epsilon_delta
from .encoding import ColumnSpan, EncodedMatrix
from .errors import ConfigError
from .nn import AdamState, Network, adam_step, build_generator
from .privacy import PrivacyParams, budget_exhausted, dp_sgd_step, poisson_sample
from .schema import ColumnKind, TableSchema

NOISE_PREDICTOR = "tablediffusion"
DENOISER = "tablediffusion-denoiser"


@dataclass(frozen=True)
class DiffusionConfig:
    variant: str = NOISE_PREDICTOR
    steps: int = 5
    batch_target: int = 512
    epochs: int = 300
    lr: float = 1e-3
    width: int = 128
    blocks: int = 2
    privacy: PrivacyParams | None = None

    def __post_init__(self) -> None:
        if self.variant not in (NOISE_PREDICTOR, DENOISER):
            raise ConfigError(f"unknown diffusion variant {self.variant!r}")
        if self.steps < 1:
            raise ConfigError(f"need at least one diffusion step, got {self.steps}")
        if self.batch_target < 1 or self.epochs < 1:
            raise ConfigError("batch size and epochs must be positive")
        if self.lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")


def cosine_beta_schedule(steps: int) -> np.ndarray:
    """beta_t = (1 - cos(pi t / steps)) / 2 for t = 1..steps; beta_T = 1."""
    if steps < 1:
        raise ConfigError(f"need at least one diffusion step, got {steps}")
    t = np.arange(1, steps + 1, dtype=np.float64)
    return (1.0 - np.cos(math.pi * t / steps)) / 2.0


def noise_step(x: np.ndarray, beta: float, rng: np.random.Generator):
    """One forward-diffusion application; returns (noised, scaled_noise)."""
    z = rng.standard_normal(x.shape) * math.sqrt(beta)
    return x + z, z


def _span_softmax(y: np.ndarray, spans: tuple[ColumnSpan, ...]) -> np.ndarray:
    """Softmax within each categorical span, identity elsewhere."""
    out = y.copy()
    for span in spans:
        if span.kind is not ColumnKind.CATEGORICAL:
            continue
        block = y[:, span.start : span.stop]
        shifted = block - block.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        out[:, span.start : span.stop] = e / e.sum(axis=1, keepdims=True)
    return out


def _continuous_mask(spans: tuple[ColumnSpan, ...], width: int) -> np.ndarray:
    mask = np.zeros(width, dtype=bool)
    for span in spans:
        if span.kind is ColumnKind.CONTINUOUS:
            mask[span.start : span.stop] = True
    return mask


def denoiser_loss_grads(y: np.ndarray, target: np.ndarray,
                        spans: tuple[ColumnSpan, ...]):
    """Per-sample reconstruction loss and its gradient w.r.t. raw outputs.

    loss_i = MSE over continuous entries
           + (1/K) * sum over categorical features of KL(true || softmax(pred)),
    with K the total number of categories.  The true distributions are
    one-hot, so each KL term reduces to -log softmax at the true label.
    """
    n_rows, _ = y.shape
    losses = np.zeros(n_rows)
    grads = np.zeros_like(y)

    cont = _continuous_mask(spans, y.shape[1])
    n_cont = int(cont.sum())
    if n_cont:
        diff = y[:, cont] - target[:, cont]
        losses += (diff * diff).mean(axis=1)
        grads[:, cont] = 2.0 * diff / n_cont

    total_categories = sum(s.width for s in spans if s.kind is ColumnKind.CATEGORICAL)
    if total_categories:
        for span in spans:
            if span.kind is not ColumnKind.CATEGORICAL:
                continue
            block = y[:, span.start : span.stop]
            truth = target[:, span.start : span.stop]
            shifted = block - block.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            log_p = shifted - log_z
            losses += -(truth * log_p).sum(axis=1) / total_categories
            grads[:, span.start : span.stop] = (np.exp(log_p) - truth) / total_categories
    return losses, grads


def noise_loss_grads(y: np.ndarray, z: np.ndarray):
    """Per-sample MSE against the scaled noise and its gradient."""
    diff = y - z
    losses = (diff * diff).mean(axis=1)
    return losses, 2.0 * diff / y.shape[1]


@dataclass
class TrainedDiffusion:
    kind: str
    schema: TableSchema
    spans: tuple[ColumnSpan, ...]
    network: Network
    adam: AdamState
    config: DiffusionConfig
    ledger: RdpLedger
    epsilon_spent: float | None
    seed: int
    log: list[dict] = field(default_factory=list)
    halted_on_budget: bool = False

    @property
    def delta(self) -> float | None:
        return self.config.privacy.delta if self.config.privacy else None


def train_diffusion(matrix: EncodedMatrix, config: DiffusionConfig, seed: int) -> TrainedDiffusion:
    rng = np.random.default_rng(seed)
    n_rows, width = matrix.values.shape
    privacy = config.privacy
    if privacy is not None and privacy.sample_rate > 1.0:
        raise ConfigError("sample rate above 1")

    net = build_generator(width, width, rng, width=config.width, blocks=config.blocks)
    adam = AdamState.zeros(net.n_params)
    betas = cosine_beta_schedule(config.steps)
    ledger = fresh_ledger()

    q = privacy.sample_rate if privacy else min(1.0, config.batch_target / n_rows)
    batches_per_epoch = max(1, round(1.0 / q))
    log: list[dict] = []
    halted = False
    batch_counter = 0

    for epoch in range(config.epochs):
        if halted:
            break
        for _ in range(batches_per_epoch):
            idx = poisson_sample(n_rows, q, rng)
            if idx.size == 0:
                continue  # skipped batches are never charged
            if privacy is not None and budget_exhausted(ledger, privacy):
                halted = True
                break
            x = matrix.values[idx]

            grad_sum = np.zeros(net.n_params)
            loss_sum = np.zeros(idx.size)
            passes = []

            for t_index in range(config.steps):
                noised, z = noise_step(x, float(betas[t_index]), rng)
                y, caches = net.forward(noised, mode="train", rng=rng)
                if config.variant == NOISE_PREDICTOR:
                    losses, loss_grads = noise_loss_grads(y, z)
                else:
                    losses, loss_grads = denoiser_loss_grads(y, x, matrix.spans)
                if privacy is not None:
                    passes.append((caches, loss_grads / config.steps))
                else:
                    grads, _ = net.backward(caches, loss_grads, per_sample=False)
                    grad_sum += grads
                loss_sum += losses

            if privacy is not None:
                update, ledger = dp_sgd_step(net, passes, ledger, privacy, rng)
            else:
                grad_sum /= config.steps
                update = grad_sum
                ledger = count_step(ledger)
            net.params, adam = adam_step(net.params, update, adam, config.lr)

            epsilon = to_epsilon_delta(ledger, privacy.delta) if privacy else None
            log.append({
                "epoch": epoch,
                "batch": batch_counter,
                "kind": "diffusion",
                "loss": float(loss_sum.mean() / config.steps),
                "epsilon": epsilon,
            })
            batch_counter += 1

    epsilon_spent = to_epsilon_delta(ledger, privacy.delta) if privacy else None
    return TrainedDiffusion(
        kind=config.variant,
        schema=matrix.schema,
        spans=matrix.spans,
        network=net,
        adam=adam,
        config=config,
        ledger=ledger,
        epsilon_spent=epsilon_spent,
        seed=seed,
        log=log,
        halted_on_budget=halted,
    )


def sample_diffusion(model: TrainedDiffusion, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Reverse process: start from pure noise, walk back to data space."""
    if rows < 1:
        raise ConfigError(f"need at least one row, got {rows}")
    width = model.schema.encoded_width
    betas = cosine_beta_schedule(model.config.steps)
    x = rng.standard_normal((rows, width))
    for t_index in reversed(range(model.config.steps)):
        y, _ = model.network.forward(x, mode="eval")
        if model.kind == NOISE_PREDICTOR:
            x = x - y * math.sqrt(float(betas[t_index]))
        else:
            # Reconstructions go back in as inputs, so categorical spans must
            # return to the simplex the network was trained on.
            x = _span_softmax(y, model.spans)
    return x
