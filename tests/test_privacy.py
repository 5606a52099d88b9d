"""Clipping, noising, Poisson sampling, and budget halting."""

import math

import numpy as np
import pytest

from tabsynth.accountant import accumulate_step, fresh_ledger, to_epsilon_delta
from tabsynth.diffusion import DiffusionConfig, train_diffusion
from tabsynth.encoding import encode
from tabsynth.errors import PrivacyError
from tabsynth.gan import GanConfig, train_dpwgan
from tabsynth.nn import Network, build_critic, build_generator
from tabsynth.privacy import (
    PrivacyParams,
    budget_exhausted,
    build_privacy,
    clip_per_sample,
    dp_sgd_step,
    gaussian_sigma,
    ghost_clip,
    poisson_sample,
    privatize_batch_gradient,
)
from tabsynth.schema import ColumnKind, ColumnSchema, RawTable, TableSchema


def make_params(**kw):
    base = dict(epsilon_target=1.0, delta=1e-5, sigma=1.0, clip_norm=1.0, sample_rate=0.01)
    base.update(kw)
    return PrivacyParams(**base)


def test_clip_hand_values():
    grads = np.array([[3.0, 4.0], [0.3, 0.4]])
    out = clip_per_sample(grads, clip_norm=1.0)
    np.testing.assert_allclose(out[0], [0.6, 0.8], rtol=1e-12)
    np.testing.assert_array_equal(out[1], [0.3, 0.4])  # under the norm: untouched
    out2 = clip_per_sample(grads, clip_norm=2.0)
    np.testing.assert_allclose(out2[0], [1.2, 1.6], rtol=1e-12)


def test_clip_norm_bound_and_direction():
    rng = np.random.default_rng(7)
    grads = rng.normal(0.0, 5.0, size=(200, 17))
    out = clip_per_sample(grads, clip_norm=1.0)
    norms = np.linalg.norm(out, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)
    # Clipping rescales: direction is preserved.
    cos = np.sum(out * grads, axis=1) / (norms * np.linalg.norm(grads, axis=1))
    np.testing.assert_allclose(cos, 1.0, atol=1e-12)
    # Original array untouched.
    assert np.linalg.norm(grads, axis=1).max() > 1.0


def test_clip_rejects_bad_norm():
    with pytest.raises(PrivacyError):
        clip_per_sample(np.ones((2, 2)), 0.0)
    with pytest.raises(PrivacyError):
        clip_per_sample(np.ones((2, 2)), -1.0)


def test_privatize_near_zero_noise_is_clipped_mean():
    grads = np.array([[3.0, 4.0], [0.3, 0.4]])
    params = make_params(sigma=1e-12)
    out = privatize_batch_gradient(grads, params, np.random.default_rng(0))
    np.testing.assert_allclose(out, [0.45, 0.6], atol=1e-9)


def test_privatize_noise_variance():
    # One zero gradient of high dimension isolates the injected noise;
    # at B=1, C=1, sigma=2 the coordinates are N(0, 4).
    params = make_params(sigma=2.0)
    out = privatize_batch_gradient(
        np.zeros((1, 100_000)), params, np.random.default_rng(42)
    )
    assert abs(out.mean()) < 0.05
    assert out.var() == pytest.approx(4.0, abs=0.1)


def test_privatize_noise_scales_with_clip_norm():
    params = make_params(sigma=1.0, clip_norm=3.0)
    out = privatize_batch_gradient(
        np.zeros((1, 100_000)), params, np.random.default_rng(3)
    )
    assert out.var() == pytest.approx(9.0, rel=0.03)


def test_privatize_divides_by_batch_size():
    # 4 identical max-norm rows, negligible noise: mean equals one clipped row.
    grads = np.tile([[30.0, 40.0]], (4, 1))
    params = make_params(sigma=1e-12)
    out = privatize_batch_gradient(grads, params, np.random.default_rng(1))
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-9)


def test_privatize_rejects_empty_batch():
    with pytest.raises(PrivacyError):
        privatize_batch_gradient(np.zeros((0, 3)), make_params(), np.random.default_rng(0))


def test_privatize_is_reproducible():
    grads = np.random.default_rng(5).normal(size=(10, 4))
    params = make_params()
    a = privatize_batch_gradient(grads, params, np.random.default_rng(11))
    b = privatize_batch_gradient(grads, params, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


def test_poisson_full_rate_keeps_everything():
    idx = poisson_sample(1000, 1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(idx, np.arange(1000))


def test_poisson_sample_size_concentrates():
    n, q = 100_000, 0.5
    idx = poisson_sample(n, q, np.random.default_rng(123))
    sd = math.sqrt(n * q * (1 - q))
    assert abs(len(idx) - n * q) < 3.0 * sd
    assert np.array_equal(idx, np.unique(idx))  # sorted, no duplicates


def test_poisson_tiny_rate_can_be_empty():
    idx = poisson_sample(1000, 1e-9, np.random.default_rng(0))
    assert idx.size == 0


def test_poisson_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(PrivacyError):
        poisson_sample(100, 0.0, rng)
    with pytest.raises(PrivacyError):
        poisson_sample(100, 1.5, rng)
    with pytest.raises(PrivacyError):
        poisson_sample(0, 0.5, rng)


def test_gaussian_sigma_reference_point():
    sigma = gaussian_sigma(1.0, 1e-5)
    assert sigma == pytest.approx(math.sqrt(2.0 * math.log(1.25e5)), rel=1e-12)
    assert sigma == pytest.approx(4.8448, abs=1e-3)
    assert gaussian_sigma(2.0, 1e-5) == pytest.approx(sigma / 2.0, rel=1e-12)
    with pytest.raises(PrivacyError):
        gaussian_sigma(0.0, 1e-5)
    with pytest.raises(PrivacyError):
        gaussian_sigma(1.0, 1.0)


def test_build_privacy():
    assert build_privacy(None, 1e-5, 1.5, 1.0, 64, 1000) is None
    params = build_privacy(1.0, 1e-5, None, 2.0, 64, 1000)
    assert params == PrivacyParams(epsilon_target=1.0, delta=1e-5,
                                   sigma=gaussian_sigma(1.0, 1e-5), clip_norm=2.0,
                                   sample_rate=0.064)
    assert build_privacy(1.0, 1e-5, 1.5, 1.0, 64, 1000).sigma == 1.5
    assert build_privacy(1.0, 1e-5, 1.5, 1.0, 512, 40).sample_rate == 1.0
    with pytest.raises(PrivacyError, match="noise multiplier"):
        build_privacy(1.0, 1e-5, 0, 1.0, 64, 1000)


def test_budget_check_is_a_pre_check():
    # Walk the ledger until the check trips, then confirm the invariant:
    # spent epsilon is within target, one more step would exceed it.
    params = make_params(epsilon_target=1.0, sigma=1.5, sample_rate=0.032)
    ledger = fresh_ledger()
    steps = 0
    while not budget_exhausted(ledger, params):
        ledger = accumulate_step(ledger, params.sample_rate, params.sigma)
        steps += 1
        assert steps < 20_000, "budget never tripped"
    assert steps > 0
    assert to_epsilon_delta(ledger, params.delta) <= params.epsilon_target
    one_more = accumulate_step(ledger, params.sample_rate, params.sigma)
    assert to_epsilon_delta(one_more, params.delta) > params.epsilon_target


def test_budget_check_trips_immediately_when_one_step_is_too_much():
    params = make_params(epsilon_target=0.1, sigma=1.0, sample_rate=1.0)
    assert budget_exhausted(fresh_ledger(), params)


@pytest.mark.parametrize(
    "field,value",
    [
        ("epsilon_target", 0.0),
        ("epsilon_target", -1.0),
        ("delta", 0.0),
        ("delta", 1.0),
        ("sigma", 0.0),
        ("clip_norm", 0.0),
        ("sample_rate", 0.0),
        ("sample_rate", 1.1),
    ],
)
def test_params_validation(field, value):
    with pytest.raises(PrivacyError):
        make_params(**{field: value})


# ---------------------------------------------------------------------------
# The ghost-norm step against the materialized per-sample oracle


def _generator_passes(width, steps, seed=0, batch=23, dim=7):
    """T forward passes over one batch, loss gradients scaled by 1/T."""
    rng = np.random.default_rng(seed)
    net = build_generator(dim, dim, rng, width=width, blocks=2)
    x = rng.normal(size=(batch, dim))
    passes = []
    for _ in range(steps):
        y, caches = net.forward(x + rng.normal(size=x.shape), mode="train", rng=rng)
        passes.append((caches, rng.normal(size=y.shape) / steps))
    return net, passes


def _critic_passes(seed=0, batch=31, dim=9):
    """The critic's real/fake pair, dropout active: l_i = -f(real_i) + f(fake_i)."""
    rng = np.random.default_rng(seed)
    net = build_critic(dim, rng)
    ones = np.ones((batch, 1))
    _, caches_real = net.forward(rng.normal(size=(batch, dim)), mode="train", rng=rng)
    _, caches_fake = net.forward(rng.normal(size=(batch, dim)), mode="train", rng=rng)
    return net, [(caches_real, -ones), (caches_fake, ones)]


def _materialized(net, passes):
    return sum(net.backward(caches, grads, per_sample=True)[0] for caches, grads in passes)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


CASES = [
    pytest.param(lambda: _generator_passes(16, 1), id="groupnorm8-T1"),
    pytest.param(lambda: _generator_passes(16, 5), id="groupnorm8-T5"),
    pytest.param(lambda: _generator_passes(12, 1), id="groupnorm1-T1"),
    pytest.param(lambda: _generator_passes(12, 5), id="groupnorm1-T5"),
    pytest.param(lambda: _generator_passes(16, 5, batch=1), id="groupnorm8-T5-batch1"),
    pytest.param(_critic_passes, id="critic-dropout"),
]


@pytest.mark.parametrize("make", CASES)
def test_ghost_norms_and_clipped_sum_match_per_sample_oracle(make):
    net, passes = make()
    grads = _materialized(net, passes)
    oracle_norms = np.linalg.norm(grads, axis=1)
    clip = float(np.median(oracle_norms))  # about half the rows get clipped
    norms, clipped = ghost_clip(net, passes, clip)
    assert np.max(np.abs(norms - oracle_norms) / oracle_norms) < 1e-12
    assert _rel(clipped, clip_per_sample(grads, clip).sum(axis=0)) < 1e-12
    if len(oracle_norms) > 1:  # a lone row's norm is its own median: it sits on the bound
        assert (oracle_norms > clip).any() and (oracle_norms < clip).any()


@pytest.mark.parametrize("make", CASES)
def test_dp_sgd_step_equals_privatize_of_the_materialized_matrix(make):
    net, passes = make()
    grads = _materialized(net, passes)
    params = make_params(clip_norm=float(np.median(np.linalg.norm(grads, axis=1))),
                         sigma=0.7)
    update, ledger = dp_sgd_step(net, passes, fresh_ledger(), params,
                                 np.random.default_rng(9))
    expected = privatize_batch_gradient(grads, params, np.random.default_rng(9))
    assert _rel(update, expected) < 1e-12
    assert ledger == accumulate_step(fresh_ledger(), params.sample_rate, params.sigma)


@pytest.mark.parametrize("seed", range(40))
def test_removing_one_row_moves_the_clipped_sum_by_at_most_the_clip_norm(seed):
    """The L2 sensitivity the ledger's charge assumes.  Eval-mode forwards
    keep every other row's passes, and so its gradient, unchanged."""
    rng = np.random.default_rng(seed)
    width, batch, steps = int(rng.integers(2, 9)), int(rng.integers(2, 12)), int(rng.integers(1, 6))
    clip = float(rng.choice([0.01, 0.5, 1.0, 5.0]))
    net = build_generator(3, 3, rng, width=width, blocks=2)
    inputs = [(rng.normal(size=(batch, 3)), rng.normal(size=(batch, 3)) / steps)
              for _ in range(steps)]

    def clipped_sum(keep):
        passes = [(net.forward(x[keep], mode="eval")[1], g[keep]) for x, g in inputs]
        return ghost_clip(net, passes, clip)[1]

    full = clipped_sum(np.arange(batch))
    for i in range(batch):
        moved = np.linalg.norm(full - clipped_sum(np.delete(np.arange(batch), i)))
        assert moved <= clip * (1.0 + 1e-9)


TOY = TableSchema((
    ColumnSchema("cat", ColumnKind.CATEGORICAL, vocabulary=("A", "B", "C")),
    ColumnSchema("x", ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0),
))


def test_private_training_never_builds_per_sample_gradients(monkeypatch):
    original = Network.backward

    def batch_only(self, caches, loss_grads, per_sample=True):
        if per_sample:
            raise AssertionError("private training asked for per-sample gradients")
        return original(self, caches, loss_grads, per_sample)

    monkeypatch.setattr(Network, "backward", batch_only)
    rng = np.random.default_rng(0)
    rows = [("ABC"[rng.integers(3)], float(rng.random())) for _ in range(200)]
    matrix = encode(RawTable(TOY, rows))
    privacy = make_params(epsilon_target=1.0, sigma=2.0, sample_rate=0.05)

    td = train_diffusion(matrix, DiffusionConfig(
        steps=3, batch_target=10, epochs=50, width=16, blocks=1, privacy=privacy), seed=1)
    gan = train_dpwgan(matrix, GanConfig(
        batch_target=10, epochs=50, latent_dim=4, width=16, blocks=1,
        privacy=privacy), seed=1)
    for model in (td, gan):
        assert model.halted_on_budget
        assert model.ledger.steps_taken > 10
        assert model.epsilon_spent <= privacy.epsilon_target
