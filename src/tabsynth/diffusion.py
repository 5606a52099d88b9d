"""Diffusion-style generative training over encoded tables.

Two variants share one loop; ``VARIANTS`` holds each one's loss and reverse
step.  The noise predictor learns the scaled noise z_t = sqrt(beta_t) * xi
added at each forward-diffusion step and samples by iteratively subtracting
its prediction; the denoiser learns to reconstruct the clean batch from its
noised version (mean squared error on continuous spans, normalized KL
divergence on categorical spans) and samples by repeated application.

Every batch is used at all T noise levels and the T per-sample losses
are averaged before a single privatized update, so one batch costs one
step of privacy budget regardless of T.  The trainer builds the T
noised passes; ``privacy.TrainingDriver`` runs the rest of the loop,
clips each sample's gradient summed over the T passes, whose loss
gradients it scales by 1/T, and returns the run as a ``TrainedModel``.
``DiffusionConfig`` adds the variant, T and the learning rate to the
shared options of ``privacy.ModelConfig``, which checks their ranges.

Sampling draws the noise for every row at once, then runs the whole
reverse walk (all T passes, each update and the span softmax) over
1,024-row blocks (``nn.map_rows``), so a block stays in cache across the
T passes and the walk's activations never take more than one block's
memory, however many rows are asked for.  On the OpenBLAS build this was
measured on, the samples are byte-identical to one walk over every row;
blocks below 1,024 rows took other kernel paths and moved the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .encoding import ColumnSpan, EncodedMatrix
from .errors import ConfigError
from .nn import build_generator, map_rows
from .privacy import ModelConfig, TrainedModel, TrainingDriver
from .schema import ColumnKind

NOISE_PREDICTOR = "tablediffusion"
DENOISER = "tablediffusion-denoiser"


@dataclass(frozen=True)
class DiffusionConfig(ModelConfig):
    variant: str = NOISE_PREDICTOR
    steps: int = 5
    lr: float = 1e-3

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown diffusion variant {self.variant!r}")
        super().__post_init__()


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


def denoiser_loss_grads(y: np.ndarray, target: np.ndarray,
                        spans: tuple[ColumnSpan, ...]):
    """Per-sample reconstruction loss and its gradient w.r.t. raw outputs.

    loss_i = MSE over continuous entries (``noise_loss_grads`` on those columns)
           + (1/K) * sum over categorical features of KL(true || softmax(pred)),
    with K the total number of categories.  The true distributions are
    one-hot, so each KL term reduces to -log softmax at the true label.
    """
    losses, grads = np.zeros(y.shape[0]), np.zeros_like(y)
    cont = [i for s in spans if s.kind is ColumnKind.CONTINUOUS for i in range(s.start, s.stop)]
    if cont:
        losses, grads[:, cont] = noise_loss_grads(y[:, cont], target[:, cont])

    categorical = [s for s in spans if s.kind is ColumnKind.CATEGORICAL]
    total_categories = sum(s.width for s in categorical)
    for span in categorical:
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


# variant -> (loss rule, reverse rule); lambdas, so a wrapper set on the module is what runs.
VARIANTS = {
    NOISE_PREDICTOR: (lambda y, x, z, spans: noise_loss_grads(y, z),
                      lambda x, y, beta, spans: x - y * math.sqrt(beta)),
    # Reconstructions go back in as inputs, so categorical spans return to the simplex.
    DENOISER: (lambda y, x, z, spans: denoiser_loss_grads(y, x, spans),
               lambda x, y, beta, spans: _span_softmax(y, spans)),
}


def train_diffusion(matrix: EncodedMatrix, config: DiffusionConfig, seed: int) -> TrainedModel:
    rng = np.random.default_rng(seed)
    n_rows, width = matrix.values.shape
    net = build_generator(width, width, rng, width=config.width, blocks=config.blocks)
    betas = cosine_beta_schedule(config.steps)
    driver = TrainingDriver(net, config.lr, config.privacy, config.batch_target, n_rows, rng)
    batches_per_epoch = max(1, round(1.0 / driver.q))
    loss, _ = VARIANTS[config.variant]

    for epoch in range(config.epochs):
        for idx in driver.draws(batches_per_epoch):
            x = matrix.values[idx]
            loss_sum = np.zeros(idx.size)
            for t_index in range(config.steps):
                noised, z = noise_step(x, float(betas[t_index]), rng)
                y, caches = net.forward(noised, mode="train", rng=rng)
                losses, loss_grads = loss(y, x, z, matrix.spans)
                driver.add(caches, loss_grads)
                loss_sum += losses
            driver.apply(config.steps, float(loss_sum.mean() / config.steps), epoch, "diffusion")
        if driver.halted:
            break

    return driver.trained(config.variant, matrix, config, seed, net, driver.adam)


def sample_diffusion(model: TrainedModel, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Reverse process: start from pure noise, walk back to data space."""
    if rows < 1:
        raise ConfigError(f"need at least one row, got {rows}")
    noise = rng.standard_normal((rows, model.schema.encoded_width))
    return map_rows(partial(reverse_walk, model), noise)


def reverse_walk(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """All T reverse steps from the noise rows ``x`` to data space."""
    betas = cosine_beta_schedule(model.config.steps)
    _, reverse = VARIANTS[model.kind]
    for t_index in reversed(range(model.config.steps)):
        y, _ = model.generator.forward(x, mode="eval")
        x = reverse(x, y, float(betas[t_index]), model.spans)
    return x
