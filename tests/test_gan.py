"""Adversarial baseline: critic/generator cadence, clamping, accounting."""

import numpy as np
import pytest

from tabsynth.accountant import fresh_ledger, to_epsilon_delta
from tabsynth.encoding import encode
from tabsynth.errors import ConfigError
from tabsynth.gan import DPWGAN, GanConfig, sample_gan, train_dpwgan
from tabsynth.nn import Network
from tabsynth.privacy import PrivacyParams
from tabsynth.schema import ColumnKind, ColumnSchema, RawTable, TableSchema

SCHEMA = TableSchema((
    ColumnSchema("cat", ColumnKind.CATEGORICAL, vocabulary=("A", "B")),
    ColumnSchema("x", ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0),
))


def tiny_matrix(n=40, seed=0):
    rng = np.random.default_rng(seed)
    rows = [("AB"[rng.integers(2)], float(rng.random())) for _ in range(n)]
    return encode(RawTable(SCHEMA, rows))


def small_config(**kw):
    base = dict(batch_target=512, epochs=2, latent_dim=8, width=8, blocks=1)
    base.update(kw)
    return GanConfig(**base)


@pytest.mark.parametrize(
    "field,value",
    [
        ("batch_target", 0),
        ("epochs", 0),
        ("generator_lr", 0.0),
        ("critic_lr", -1.0),
        ("critic_steps", 0),
        ("latent_dim", 0),
        ("weight_clamp", 0.0),
    ],
)
def test_config_validation(field, value):
    with pytest.raises(ConfigError):
        small_config(**{field: value})


def test_training_cadence_and_log_shape():
    # 40 rows with batch target 512: q = 1, one cycle per epoch of
    # critic_steps critic updates followed by one generator update.
    model = train_dpwgan(tiny_matrix(), small_config(epochs=2, critic_steps=5), seed=0)
    kinds = [entry["kind"] for entry in model.log]
    assert kinds == (["critic"] * 5 + ["generator"]) * 2
    assert model.ledger.steps_taken == 10  # generator updates are never counted
    assert model.adam_critic.t == 10
    assert model.adam.t == 2
    assert model.kind == DPWGAN
    assert model.epsilon_spent is None
    assert all(entry["epsilon"] is None for entry in model.log)


def test_weight_clamp_is_enforced_after_updates():
    clamp = 0.01
    model = train_dpwgan(tiny_matrix(), small_config(weight_clamp=clamp), seed=1)
    assert np.max(np.abs(model.critic.params)) <= clamp
    # the clamp actually binds: Glorot init starts well outside it
    assert np.any(np.abs(model.critic.params) == clamp)
    # generator weights are free
    assert np.max(np.abs(model.generator.params)) > clamp


def test_ledger_charges_critic_steps_only():
    privacy = PrivacyParams(
        epsilon_target=1.0, delta=1e-5, sigma=1.5, clip_norm=1.0, sample_rate=0.032
    )
    model = train_dpwgan(
        tiny_matrix(), small_config(epochs=300, privacy=privacy), seed=2
    )
    assert model.halted_on_budget
    critic_entries = [e for e in model.log if e["kind"] == "critic"]
    gen_entries = [e for e in model.log if e["kind"] == "generator"]
    assert model.ledger.steps_taken == len(critic_entries)
    assert model.epsilon_spent is not None
    assert model.epsilon_spent <= privacy.epsilon_target
    assert model.epsilon_spent == critic_entries[-1]["epsilon"]
    # generator entries report the running total but never advance it
    eps_by_batch = {e["batch"]: e["epsilon"] for e in critic_entries}
    for entry in gen_entries:
        prior = [v for b, v in eps_by_batch.items() if b < entry["batch"]]
        assert entry["epsilon"] == max(prior)
    path = [e["epsilon"] for e in critic_entries]
    assert path == sorted(path)


def test_privatized_training_can_halt_before_its_first_step():
    # The first critic charge would already pass a 0.01 target, so neither
    # network is updated and no generator row is logged.
    privacy = PrivacyParams(
        epsilon_target=0.01, delta=1e-5, sigma=1.5, clip_norm=1.0, sample_rate=0.5
    )
    model = train_dpwgan(tiny_matrix(), small_config(privacy=privacy), seed=0)
    assert model.ledger.steps_taken == 0
    assert model.log == []
    assert model.halted_on_budget
    assert model.epsilon_spent == to_epsilon_delta(fresh_ledger(), privacy.delta)


def test_training_is_reproducible():
    config = small_config(epochs=1)
    a = train_dpwgan(tiny_matrix(), config, seed=9)
    b = train_dpwgan(tiny_matrix(), config, seed=9)
    np.testing.assert_array_equal(a.generator.params, b.generator.params)
    np.testing.assert_array_equal(a.critic.params, b.critic.params)
    assert a.log == b.log


def test_sampling_uses_generator_only():
    model = train_dpwgan(tiny_matrix(), small_config(epochs=1), seed=3)
    a = sample_gan(model, 13, np.random.default_rng(4))
    b = sample_gan(model, 13, np.random.default_rng(4))
    assert a.shape == (13, SCHEMA.encoded_width)
    np.testing.assert_array_equal(a, b)
    # matches a direct pass of the same latents through the generator
    z = np.random.default_rng(4).standard_normal((13, model.config.latent_dim))
    direct, _ = model.generator.forward(z, mode="eval")
    np.testing.assert_array_equal(a, direct)
    with pytest.raises(ConfigError):
        sample_gan(model, 0, np.random.default_rng(0))


def test_private_generator_updates_build_no_critic_gradient(monkeypatch):
    # The critic's private updates clip from ghost norms and the generator
    # step needs only the critic's input gradient, so Network.backward runs
    # on the generator alone.
    backward_nets = []
    original = Network.backward

    def recording(self, caches, loss_grads, per_sample=True):
        backward_nets.append(self)
        return original(self, caches, loss_grads, per_sample)

    monkeypatch.setattr(Network, "backward", recording)
    privacy = PrivacyParams(epsilon_target=5.0, delta=1e-5, sigma=2.0, clip_norm=1.0,
                            sample_rate=0.25)
    model = train_dpwgan(tiny_matrix(), small_config(privacy=privacy, batch_target=10), seed=0)
    assert model.ledger.steps_taken > model.config.critic_steps
    assert backward_nets and all(net is model.generator for net in backward_nets)
