"""DP-WGAN baseline: Wasserstein critic under DP-SGD, free generator.

Only the critic touches real rows, so only its updates are clipped,
noised and charged to the ledger.  The generator trains on critic scores
alone and inherits privacy through post-processing.  Lipschitz control
is the classic weight clamp, not a gradient penalty — a penalty would
need per-sample gradients of gradients, which the kernel does not do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accountant import RdpLedger, count_step, fresh_ledger, to_epsilon_delta
from .encoding import ColumnSpan, EncodedMatrix
from .errors import ConfigError
from .nn import AdamState, Network, adam_step, build_critic, build_generator
from .privacy import PrivacyParams, budget_exhausted, dp_sgd_step, poisson_sample
from .schema import TableSchema

DPWGAN = "dpwgan"


@dataclass(frozen=True)
class GanConfig:
    batch_target: int = 512
    epochs: int = 300
    generator_lr: float = 1e-4
    critic_lr: float = 1e-4
    critic_steps: int = 5      # critic updates per generator update
    latent_dim: int = 128
    weight_clamp: float = 0.01
    width: int = 128
    blocks: int = 2
    privacy: PrivacyParams | None = None

    def __post_init__(self) -> None:
        if self.batch_target < 1 or self.epochs < 1:
            raise ConfigError("batch size and epochs must be positive")
        if self.generator_lr <= 0.0 or self.critic_lr <= 0.0:
            raise ConfigError("learning rates must be positive")
        if self.critic_steps < 1:
            raise ConfigError(f"need at least one critic step, got {self.critic_steps}")
        if self.latent_dim < 1:
            raise ConfigError(f"latent dim must be positive, got {self.latent_dim}")
        if self.weight_clamp <= 0.0:
            raise ConfigError(f"weight clamp must be positive, got {self.weight_clamp}")


@dataclass
class TrainedGan:
    kind: str
    schema: TableSchema
    spans: tuple[ColumnSpan, ...]
    generator: Network
    critic: Network
    adam_generator: AdamState
    adam_critic: AdamState
    config: GanConfig
    ledger: RdpLedger
    epsilon_spent: float | None
    seed: int
    log: list[dict] = field(default_factory=list)
    halted_on_budget: bool = False

    @property
    def delta(self) -> float | None:
        return self.config.privacy.delta if self.config.privacy else None


def train_dpwgan(matrix: EncodedMatrix, config: GanConfig, seed: int) -> TrainedGan:
    rng = np.random.default_rng(seed)
    n_rows, width = matrix.values.shape
    privacy = config.privacy

    generator = build_generator(config.latent_dim, width, rng,
                                width=config.width, blocks=config.blocks)
    critic = build_critic(width, rng)
    adam_g = AdamState.zeros(generator.n_params)
    adam_c = AdamState.zeros(critic.n_params)
    ledger = fresh_ledger()

    q = privacy.sample_rate if privacy else min(1.0, config.batch_target / n_rows)
    cycles_per_epoch = max(1, round(1.0 / q / config.critic_steps))
    log: list[dict] = []
    halted = False
    batch_counter = 0

    for epoch in range(config.epochs):
        if halted:
            break
        for _ in range(cycles_per_epoch):
            if halted:
                break
            for _ in range(config.critic_steps):
                idx = poisson_sample(n_rows, q, rng)
                if idx.size == 0:
                    continue
                if privacy is not None and budget_exhausted(ledger, privacy):
                    halted = True
                    break
                real = matrix.values[idx]
                z = rng.standard_normal((idx.size, config.latent_dim))
                fake, _ = generator.forward(z, mode="train", rng=rng)

                # Per-sample critic loss pairs real row i with fake row i:
                # l_i = -f(real_i) + f(fake_i); its mean is the WGAN objective.
                score_real, caches_real = critic.forward(real, mode="train", rng=rng)
                score_fake, caches_fake = critic.forward(fake, mode="train", rng=rng)
                ones = np.ones((idx.size, 1))
                if privacy is not None:
                    update, ledger = dp_sgd_step(
                        critic, [(caches_real, -ones), (caches_fake, ones)],
                        ledger, privacy, rng)
                else:
                    grads_real, _ = critic.backward(caches_real, -ones, per_sample=False)
                    grads_fake, _ = critic.backward(caches_fake, ones, per_sample=False)
                    update = grads_real + grads_fake
                    ledger = count_step(ledger)
                critic.params, adam_c = adam_step(critic.params, update, adam_c, config.critic_lr)
                np.clip(critic.params, -config.weight_clamp, config.weight_clamp,
                        out=critic.params)

                epsilon = to_epsilon_delta(ledger, privacy.delta) if privacy else None
                log.append({
                    "epoch": epoch,
                    "batch": batch_counter,
                    "kind": "critic",
                    "loss": float(score_fake.mean() - score_real.mean()),
                    "epsilon": epsilon,
                })
                batch_counter += 1
            if halted:
                break

            # Generator update: scores only, no real rows anywhere in this block.
            z = rng.standard_normal((config.batch_target, config.latent_dim))
            fake, caches_gen = generator.forward(z, mode="train", rng=rng)
            score, caches_critic = critic.forward(fake, mode="train", rng=rng)
            ones = np.ones((config.batch_target, 1))
            _, input_grads = critic.backward(caches_critic, -ones, per_sample=False)
            gen_grads, _ = generator.backward(caches_gen, input_grads, per_sample=False)
            generator.params, adam_g = adam_step(generator.params, gen_grads, adam_g,
                                                 config.generator_lr)
            epsilon = to_epsilon_delta(ledger, privacy.delta) if privacy else None
            log.append({
                "epoch": epoch,
                "batch": batch_counter,
                "kind": "generator",
                "loss": float(-score.mean()),
                "epsilon": epsilon,
            })

    epsilon_spent = to_epsilon_delta(ledger, privacy.delta) if privacy else None
    return TrainedGan(
        kind=DPWGAN,
        schema=matrix.schema,
        spans=matrix.spans,
        generator=generator,
        critic=critic,
        adam_generator=adam_g,
        adam_critic=adam_c,
        config=config,
        ledger=ledger,
        epsilon_spent=epsilon_spent,
        seed=seed,
        log=log,
        halted_on_budget=halted,
    )


def sample_gan(model: TrainedGan, rows: int, rng: np.random.Generator) -> np.ndarray:
    if rows < 1:
        raise ConfigError(f"need at least one row, got {rows}")
    z = rng.standard_normal((rows, model.config.latent_dim))
    x, _ = model.generator.forward(z, mode="eval")
    return x
