"""Diffusion trainer: schedule, losses, budget bookkeeping, sampling."""

import math

import numpy as np
import pytest

from tabsynth.accountant import fresh_ledger, to_epsilon_delta
from tabsynth.diffusion import (
    DENOISER,
    NOISE_PREDICTOR,
    DiffusionConfig,
    _span_softmax,
    cosine_beta_schedule,
    denoiser_loss_grads,
    noise_loss_grads,
    noise_step,
    reverse_walk,
    sample_diffusion,
    train_diffusion,
)
from tabsynth.encoding import column_spans, encode
from tabsynth.errors import ConfigError
from tabsynth.nn import ROW_BLOCK
from tabsynth.privacy import PrivacyParams
from tabsynth.schema import ColumnKind, ColumnSchema, RawTable, TableSchema

SCHEMA = TableSchema((
    ColumnSchema("cat", ColumnKind.CATEGORICAL, vocabulary=("A", "B", "C")),
    ColumnSchema("x", ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0),
    ColumnSchema("y", ColumnKind.CONTINUOUS, minimum=-1.0, maximum=1.0),
))
SPANS = column_spans(SCHEMA)


def tiny_matrix(n=40, seed=0):
    rng = np.random.default_rng(seed)
    rows = [
        ("ABC"[rng.integers(3)], float(rng.random()), float(2 * rng.random() - 1))
        for _ in range(n)
    ]
    return encode(RawTable(SCHEMA, rows))


def test_beta_schedule_values():
    betas = cosine_beta_schedule(4)
    expected = [(1 - math.cos(math.pi * t / 4)) / 2 for t in (1, 2, 3, 4)]
    np.testing.assert_allclose(betas, expected, rtol=1e-15)
    assert betas[0] == pytest.approx(0.146447, abs=1e-6)
    assert betas[-1] == 1.0


def test_beta_schedule_monotone_and_final():
    for steps in (1, 2, 5, 50):
        betas = cosine_beta_schedule(steps)
        assert betas.shape == (steps,)
        assert np.all(np.diff(betas) > 0.0) or steps == 1
        assert betas[-1] == 1.0
    with pytest.raises(ConfigError):
        cosine_beta_schedule(0)


def test_noise_step_adds_scaled_noise():
    x = np.zeros((20_000, 3))
    noised, z = noise_step(x, 0.25, np.random.default_rng(0))
    np.testing.assert_array_equal(noised, x + z)
    assert z.std() == pytest.approx(0.5, abs=0.01)


def test_span_softmax_normalizes_categorical_only():
    y = np.random.default_rng(1).normal(0.0, 3.0, size=(6, SCHEMA.encoded_width))
    out = _span_softmax(y, SPANS)
    np.testing.assert_allclose(out[:, :3].sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out[:, :3] > 0.0)
    np.testing.assert_array_equal(out[:, 3:], y[:, 3:])


def test_noise_loss_hand_values():
    y = np.array([[1.0, 2.0], [0.0, 0.0]])
    z = np.array([[0.0, 2.0], [1.0, -1.0]])
    losses, grads = noise_loss_grads(y, z)
    np.testing.assert_allclose(losses, [0.5, 1.0])
    np.testing.assert_allclose(grads, [[1.0, 0.0], [-1.0, 1.0]])


def test_denoiser_loss_uniform_logits():
    # Zero logits over a 3-way span: KL(one-hot || uniform) = log 3, averaged
    # over the 3 total categories; MSE block is zero.
    y = np.zeros((1, 5))
    target = np.array([[1.0, 0.0, 0.0, 0.3, -0.2]])
    y[:, 3:] = target[:, 3:]
    losses, grads = denoiser_loss_grads(y, target, SPANS)
    assert losses[0] == pytest.approx(math.log(3.0) / 3.0, rel=1e-12)
    np.testing.assert_allclose(grads[0, :3], (np.array([1 / 3, 1 / 3, 1 / 3]) - [1, 0, 0]) / 3)
    np.testing.assert_array_equal(grads[0, 3:], 0.0)


def test_denoiser_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(4, SCHEMA.encoded_width))
    target = encode(RawTable(SCHEMA, [("A", 0.1, 0.0), ("B", 0.9, -0.5),
                                      ("C", 0.5, 0.5), ("A", 0.0, 1.0)])).values
    losses, grads = denoiser_loss_grads(y, target, SPANS)
    h = 1e-7
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            bump = y.copy()
            bump[i, j] += h
            up, _ = denoiser_loss_grads(bump, target, SPANS)
            bump[i, j] -= 2 * h
            dn, _ = denoiser_loss_grads(bump, target, SPANS)
            fd = (up[i] - dn[i]) / (2 * h)
            assert fd == pytest.approx(grads[i, j], rel=1e-4, abs=1e-8)


def test_config_validation():
    with pytest.raises(ConfigError):
        DiffusionConfig(variant="glide")
    with pytest.raises(ConfigError):
        DiffusionConfig(steps=0)
    with pytest.raises(ConfigError):
        DiffusionConfig(epochs=0)
    with pytest.raises(ConfigError):
        DiffusionConfig(lr=0.0)


def test_unprivatized_training_counts_steps_without_epsilon():
    matrix = tiny_matrix()
    config = DiffusionConfig(steps=3, batch_target=512, epochs=4, width=8, blocks=1)
    model = train_diffusion(matrix, config, seed=0)
    # 40 rows, batch target 512: one full batch per epoch.
    assert len(model.log) == 4
    assert model.ledger.steps_taken == 4
    assert model.adam.t == 4
    assert model.epsilon_spent is None
    assert all(entry["epsilon"] is None for entry in model.log)
    assert all(math.isfinite(entry["loss"]) for entry in model.log)
    assert not model.halted_on_budget


def test_one_update_per_batch_regardless_of_depth():
    matrix = tiny_matrix()
    for steps in (1, 5):
        config = DiffusionConfig(steps=steps, batch_target=512, epochs=3, width=8, blocks=1)
        model = train_diffusion(matrix, config, seed=1)
        assert model.adam.t == len(model.log) == model.ledger.steps_taken == 3


def test_training_is_reproducible():
    matrix = tiny_matrix()
    config = DiffusionConfig(steps=2, batch_target=512, epochs=3, width=8, blocks=1)
    a = train_diffusion(matrix, config, seed=7)
    b = train_diffusion(matrix, config, seed=7)
    np.testing.assert_array_equal(a.generator.params, b.generator.params)
    assert a.log == b.log
    c = train_diffusion(matrix, config, seed=8)
    assert not np.array_equal(a.generator.params, c.generator.params)


def test_privatized_training_halts_within_budget():
    matrix = tiny_matrix()
    privacy = PrivacyParams(
        epsilon_target=1.0, delta=1e-5, sigma=1.5, clip_norm=1.0, sample_rate=0.032
    )
    config = DiffusionConfig(
        steps=2, batch_target=20, epochs=200, width=8, blocks=1, privacy=privacy
    )
    model = train_diffusion(matrix, config, seed=3)
    assert model.halted_on_budget
    assert model.epsilon_spent is not None
    assert model.epsilon_spent <= 1.0
    # every charged step appears in the log with a finite epsilon
    assert model.ledger.steps_taken == len(model.log)
    assert all(entry["epsilon"] is not None for entry in model.log)
    eps_path = [entry["epsilon"] for entry in model.log]
    assert eps_path == sorted(eps_path)
    assert model.epsilon_spent == eps_path[-1]


def test_privatized_training_can_halt_before_its_first_step():
    # The fresh ledger already reads 0.0225 at delta 1e-5, so the first
    # charge would pass a 0.01 target: training halts with nothing spent.
    privacy = PrivacyParams(
        epsilon_target=0.01, delta=1e-5, sigma=1.5, clip_norm=1.0, sample_rate=0.5
    )
    config = DiffusionConfig(steps=2, batch_target=20, epochs=3, width=8, blocks=1,
                             privacy=privacy)
    model = train_diffusion(tiny_matrix(), config, seed=0)
    assert model.ledger.steps_taken == 0
    assert model.log == []
    assert model.halted_on_budget
    assert model.epsilon_spent == to_epsilon_delta(fresh_ledger(), privacy.delta)


def test_sampling_shapes_and_determinism():
    matrix = tiny_matrix()
    for variant in (NOISE_PREDICTOR, DENOISER):
        config = DiffusionConfig(variant=variant, steps=2, batch_target=512, epochs=2,
                                 width=8, blocks=1)
        model = train_diffusion(matrix, config, seed=0)
        a = sample_diffusion(model, 17, np.random.default_rng(5))
        b = sample_diffusion(model, 17, np.random.default_rng(5))
        assert a.shape == (17, SCHEMA.encoded_width)
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ConfigError):
            sample_diffusion(model, 0, np.random.default_rng(0))

        # Two full row blocks and a tail: each block is the walk over its own
        # noise alone, and the whole is the walk over every row at once.
        rows = 2 * ROW_BLOCK + 452
        out = sample_diffusion(model, rows, np.random.default_rng(5))
        noise = np.random.default_rng(5).standard_normal((rows, SCHEMA.encoded_width))
        for start in range(0, rows, ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            np.testing.assert_array_equal(out[block], reverse_walk(model, noise[block]))
        whole = reverse_walk(model, noise)
        np.testing.assert_allclose(out, whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max())


def test_denoiser_variant_samples_on_the_simplex():
    matrix = tiny_matrix()
    config = DiffusionConfig(
        variant=DENOISER, steps=2, batch_target=512, epochs=2, width=8, blocks=1
    )
    model = train_diffusion(matrix, config, seed=0)
    assert model.kind == DENOISER
    out = sample_diffusion(model, 9, np.random.default_rng(0))
    np.testing.assert_allclose(out[:, :3].sum(axis=1), 1.0, atol=1e-9)


def test_noise_predictor_reverse_rule():
    # With the network frozen, one reverse step must subtract exactly
    # sqrt(beta_t) times the prediction.
    matrix = tiny_matrix()
    config = DiffusionConfig(steps=1, batch_target=512, epochs=1, width=8, blocks=1)
    model = train_diffusion(matrix, config, seed=0)
    assert model.kind == NOISE_PREDICTOR
    rng = np.random.default_rng(11)
    out = sample_diffusion(model, 5, rng)
    x = np.random.default_rng(11).standard_normal((5, SCHEMA.encoded_width))
    y, _ = model.generator.forward(x, mode="eval")
    np.testing.assert_allclose(out, x - y * math.sqrt(1.0), rtol=1e-12)
