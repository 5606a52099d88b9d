"""DP-WGAN baseline: Wasserstein critic under DP-SGD, free generator.

Only the critic touches real rows, so only its updates are clipped,
noised and charged to the ledger.  The generator trains on critic scores
alone and inherits privacy through post-processing.  Lipschitz control
is the classic weight clamp, not a gradient penalty — a penalty would
need per-sample gradients of gradients, which the kernel does not do.
``privacy.TrainingDriver`` runs the critic's batch loop and returns the run
as a ``TrainedModel``; the trainer builds its real/fake pair, clamps it and
runs the generator updates.  ``GanConfig`` adds the two learning rates, the
critic cadence, the latent size and the clamp to the shared options of
``privacy.ModelConfig``, which checks their ranges.  Sampling draws every
row's latent at once and runs the generator over 1,024-row blocks
(``nn.map_rows``), as ``diffusion`` does, with the same bytes as one pass:
each block is copied into one ``nn.EvalWorkspace`` per call, sized to one
block, whose pass writes every activation into buffers allocated once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodedMatrix
from .errors import ConfigError
from .nn import (ROW_BLOCK, AdamState, EvalWorkspace, adam_step, build_critic, build_generator,
                 map_rows)
from .privacy import ModelConfig, TrainedModel, TrainingDriver

DPWGAN = "dpwgan"


@dataclass(frozen=True)
class GanConfig(ModelConfig):
    generator_lr: float = 1e-4
    critic_lr: float = 1e-4
    critic_steps: int = 5      # critic updates per generator update
    latent_dim: int = 128
    weight_clamp: float = 0.01


def train_dpwgan(matrix: EncodedMatrix, config: GanConfig, seed: int) -> TrainedModel:
    rng = np.random.default_rng(seed)
    n_rows, width = matrix.values.shape
    generator = build_generator(config.latent_dim, width, rng,
                                width=config.width, blocks=config.blocks)
    critic = build_critic(width, rng)
    adam_g = AdamState.zeros(generator.n_params)
    driver = TrainingDriver(critic, config.critic_lr, config.privacy, config.batch_target,
                            n_rows, rng)
    cycles_per_epoch = max(1, round(1.0 / driver.q / config.critic_steps))

    for epoch in range(config.epochs):
        for _ in range(cycles_per_epoch):
            for idx in driver.draws(config.critic_steps):
                real = matrix.values[idx]
                z = rng.standard_normal((idx.size, config.latent_dim))
                fake, _ = generator.forward(z, mode="train", rng=rng)

                # Per-sample critic loss pairs real row i with fake row i:
                # l_i = -f(real_i) + f(fake_i); its mean is the WGAN objective.
                score_real, caches_real = critic.forward(real, mode="train", rng=rng)
                score_fake, caches_fake = critic.forward(fake, mode="train", rng=rng)
                ones = np.ones((idx.size, 1))
                driver.add(caches_real, -ones)
                driver.add(caches_fake, ones)
                driver.apply(1, float(score_fake.mean() - score_real.mean()), epoch, "critic")
                np.clip(critic.params, -config.weight_clamp, config.weight_clamp,
                        out=critic.params)
            if driver.halted:
                break

            # Generator update: scores only, no real rows anywhere in this block.
            z = rng.standard_normal((config.batch_target, config.latent_dim))
            fake, caches_gen = generator.forward(z, mode="train", rng=rng)
            score, caches_critic = critic.forward(fake, mode="train", rng=rng)
            ones = np.ones((config.batch_target, 1))
            input_grads = critic.backward_pairs(caches_critic, -ones)[1]  # no critic gradient
            gen_grads, _ = generator.backward(caches_gen, input_grads, per_sample=False)
            generator.params, adam_g = adam_step(generator.params, gen_grads, adam_g,
                                                 config.generator_lr)
            driver.record(epoch, "generator", float(-score.mean()))
        if driver.halted:
            break

    return driver.trained(DPWGAN, matrix, config, seed, generator, adam_g, critic)


def sample_gan(model: TrainedModel, rows: int, rng: np.random.Generator) -> np.ndarray:
    if rows < 1:
        raise ConfigError(f"need at least one row, got {rows}")
    z = rng.standard_normal((rows, model.config.latent_dim))
    return map_rows(EvalWorkspace(model.generator, min(rows, ROW_BLOCK)), z)
