"""Finite-difference checks and behavioral tests for the network kernel."""

import numpy as np
import pytest

from tabsynth.nn import (
    ROW_BLOCK,
    AdamState,
    Dense,
    Dropout,
    EvalWorkspace,
    GroupNorm,
    LeakyRelu,
    Network,
    Relu,
    ResidualConcatBlock,
    Sigmoid,
    adam_step,
    build_critic,
    build_generator,
    check_generator,
    layer_from_spec,
    map_rows,
)


def _loss_and_grads(net, x):
    """phi = mean_i 0.5 ||y_i||^2 and its parameter gradient, both ways."""
    y, caches = net.forward(x, mode="eval")
    per_sample, gx = net.backward(caches, y, per_sample=True)
    batch_grad, _ = net.backward(caches, y, per_sample=False)
    phi = 0.5 * float((y * y).sum()) / x.shape[0]
    return phi, per_sample, batch_grad, gx


def _fd_param_grad(net, x, h=1e-6):
    def phi(p):
        saved = net.params
        net.params = p
        y, _ = net.forward(x, mode="eval")
        net.params = saved
        return 0.5 * float((y * y).sum()) / x.shape[0]

    base = net.params.copy()
    grad = np.empty_like(base)
    for j in range(base.size):
        step = np.zeros_like(base)
        step[j] = h
        grad[j] = (phi(base + step) - phi(base - step)) / (2.0 * h)
    return grad


def _check_net(net, in_dim, seed=0):
    rng = np.random.default_rng(seed)
    net.params = rng.normal(0.0, 0.02, size=net.n_params)
    x = rng.normal(0.0, 1.0, size=(7, in_dim))
    _, per_sample, batch_grad, _ = _loss_and_grads(net, x)
    np.testing.assert_allclose(per_sample.mean(axis=0), batch_grad, rtol=1e-10, atol=1e-13)
    fd = _fd_param_grad(net, x)
    denom = np.maximum(np.abs(batch_grad), 1e-4)
    assert np.max(np.abs(fd - batch_grad) / denom) < 1e-4


def test_dense_gradients():
    _check_net(Network([Dense(4, 3)], rng=np.random.default_rng(0)), 4)


def test_relu_stack_gradients():
    net = Network([Dense(5, 8), Relu(), Dense(8, 2)], rng=np.random.default_rng(1))
    _check_net(net, 5, seed=1)


def test_leaky_relu_stack_gradients():
    net = Network([Dense(5, 8), LeakyRelu(0.2), Dense(8, 2)], rng=np.random.default_rng(2))
    _check_net(net, 5, seed=2)


def test_sigmoid_gradients():
    net = Network([Dense(5, 4), Sigmoid()], rng=np.random.default_rng(3))
    _check_net(net, 5, seed=3)


def test_group_norm_gradients():
    net = Network([Dense(5, 16), GroupNorm(16), Dense(16, 2)], rng=np.random.default_rng(4))
    _check_net(net, 5, seed=4)


def test_layer_norm_fallback_gradients():
    # 6 channels: not divisible by 8, so a single normalization group.
    assert GroupNorm(6).groups == 1
    net = Network([Dense(5, 6), GroupNorm(6), Dense(6, 2)], rng=np.random.default_rng(5))
    _check_net(net, 5, seed=5)


def test_residual_concat_gradients():
    net = Network(
        [ResidualConcatBlock(5, width=16), Dense(21, 2)], rng=np.random.default_rng(6)
    )
    _check_net(net, 5, seed=6)


def test_generator_gradients():
    net = build_generator(6, 6, np.random.default_rng(7), width=16, blocks=2)
    _check_net(net, 6, seed=7)


def test_critic_gradients():
    net = build_critic(5, np.random.default_rng(8), hidden=16)
    _check_net(net, 5, seed=8)


def test_input_gradients():
    rng = np.random.default_rng(9)
    net = Network([Dense(5, 8), Relu(), Dense(8, 2)], rng=rng)
    x = rng.normal(size=(4, 5))
    _, _, _, gx = _loss_and_grads(net, x)

    def phi(xv):
        y, _ = net.forward(xv, mode="eval")
        return 0.5 * float((y * y).sum()) / xv.shape[0]

    h = 1e-6
    fd = np.empty_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            step = np.zeros_like(x)
            step[i, j] = h
            fd[i, j] = (phi(x + step) - phi(x - step)) / (2.0 * h)
    # backward returns d(sum_i L_i)/dx_i rows; phi averages, so scale.
    np.testing.assert_allclose(fd, gx / x.shape[0], rtol=1e-5, atol=1e-9)


def test_per_sample_rows_are_individual_gradients():
    # Row i of the per-sample gradient must match the batch gradient of a
    # batch containing only sample i.
    rng = np.random.default_rng(10)
    net = Network([Dense(4, 6), GroupNorm(6), Relu(), Dense(6, 3)], rng=rng)
    x = rng.normal(size=(5, 4))
    y, caches = net.forward(x, mode="eval")
    per_sample, _ = net.backward(caches, y, per_sample=True)
    for i in range(x.shape[0]):
        yi, ci = net.forward(x[i : i + 1], mode="eval")
        gi, _ = net.backward(ci, yi, per_sample=False)
        np.testing.assert_allclose(per_sample[i], gi, rtol=1e-12, atol=1e-15)


def test_group_norm_standardizes_within_groups():
    layer = GroupNorm(64)
    assert layer.groups == 8
    net = Network([layer], rng=np.random.default_rng(11))  # gamma=1, delta=0
    x = np.random.default_rng(12).normal(3.0, 10.0, size=(16, 64))
    out, _ = net.forward(x, mode="eval")
    grouped = out.reshape(16, 8, 8)
    np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-12)
    np.testing.assert_allclose(grouped.var(axis=2), 1.0, atol=1e-6)


def _two_pass_group_norm(x, gamma, delta, gy, groups):
    """Reference GroupNorm: group statistics from ``mean`` and ``var``.

    Returns the output, the input gradient and the batch-mean (gamma,
    delta) gradient for output gradients gy.
    """
    b, c = x.shape
    xg = x.reshape(b, groups, -1)
    inv_std = 1.0 / np.sqrt(xg.var(axis=2, keepdims=True) + GroupNorm.EPS)
    xhat = ((xg - xg.mean(axis=2, keepdims=True)) * inv_std).reshape(b, c)
    ghat = (gy * gamma).reshape(b, groups, -1)
    xh = xhat.reshape(b, groups, -1)
    centered = (ghat - ghat.mean(axis=2, keepdims=True)
                - xh * (ghat * xh).mean(axis=2, keepdims=True))
    gx = (inv_std * centered).reshape(b, c)
    grad = np.concatenate([(gy * xhat).mean(axis=0), gy.mean(axis=0)])
    return gamma * xhat + delta, gx, grad


@pytest.mark.parametrize("channels, groups", [(128, 8), (6, 1)])
@pytest.mark.parametrize("batch", [1, 512])
@pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e3, 1e-3)])
def test_group_norm_matches_the_two_pass_reference(channels, groups, batch, offset, scale):
    layer = GroupNorm(channels)
    assert layer.groups == groups
    rng = np.random.default_rng(channels + batch)
    p = np.concatenate([rng.normal(1.0, 0.1, channels), rng.normal(0.0, 0.1, channels)])
    x = offset + scale * rng.normal(size=(batch, channels))
    gy = rng.normal(size=(batch, channels))
    x_bytes, gy_bytes = x.tobytes(), gy.tobytes()

    y, cache = layer.forward(p, x, "train", None)
    assert x.tobytes() == x_bytes
    cached = [a.tobytes() for a in cache]
    grad = np.zeros(2 * channels)
    gx = layer.backward(p, cache, gy, grad, per_sample=False)
    assert [a.tobytes() for a in cache] == cached
    pairs = []
    gx_pairs = layer.backward_pairs(p, cache, gy, 0, pairs)
    assert [a.tobytes() for a in cache] == cached
    assert gy.tobytes() == gy_bytes
    assert pairs[0].a is cache[0] and pairs[0].g is gy
    np.testing.assert_array_equal(gx_pairs, gx)

    ref_y, ref_gx, ref_grad = _two_pass_group_norm(x, p[:channels], p[channels:], gy, groups)
    for got, want in ((y, ref_y), (gx, ref_gx), (grad, ref_grad)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("make", [
    lambda rng: build_generator(5, 5, rng, width=16, blocks=2),
    lambda rng: build_generator(5, 5, rng, width=12, blocks=2),
    lambda rng: build_critic(5, rng, hidden=16),
], ids=["groupnorm8", "groupnorm1", "critic"])
def test_batch_mean_gradient_bytes_are_the_reference_expressions(make):
    rng = np.random.default_rng(4)
    net = make(rng)
    net.params = rng.normal(0.0, 0.3, size=net.n_params)
    y, caches = net.forward(rng.normal(size=(37, 5)), mode="train", rng=rng)
    gy = rng.normal(size=y.shape)
    grads, _ = net.backward(caches, gy, per_sample=False)

    pairs, _ = net.backward_pairs(caches, gy)
    assert {type(pair.layer) for pair in pairs} == (
        {Dense} if isinstance(net.layers[0], Dense) else {Dense, GroupNorm})
    want = np.zeros(net.n_params)
    for layer, start, x, g in pairs:
        b = g.shape[0]
        out = want[start : start + layer.n_params]
        if isinstance(layer, Dense):
            split = layer.out_dim * layer.in_dim
            out[:split] = (g.T @ x).ravel() / b
            out[split:] = g.mean(axis=0)
        else:
            out[: layer.channels] = np.einsum("bc,bc->c", g, x) / b
            out[layer.channels :] = g.sum(axis=0) / b
    assert grads.tobytes() == want.tobytes()


def test_group_norm_rejects_indivisible_groups():
    with pytest.raises(ValueError):
        GroupNorm(10, groups=4)


def test_dropout_statistics():
    layer = Dropout(0.5)
    x = np.ones((100, 1000))
    out, mask = layer.forward(np.empty(0), x, "train", np.random.default_rng(13))
    dropped = float((out == 0.0).mean())
    assert dropped == pytest.approx(0.5, abs=0.01)
    kept = out[out != 0.0]
    np.testing.assert_allclose(kept, 2.0)  # inverted scaling by 1/keep


def test_dropout_eval_is_identity():
    layer = Dropout(0.5)
    x = np.random.default_rng(14).normal(size=(3, 4))
    out, cache = layer.forward(np.empty(0), x, "eval", None)
    np.testing.assert_array_equal(out, x)
    assert cache is None


def test_dropout_train_requires_rng():
    with pytest.raises(ValueError):
        Dropout(0.5).forward(np.empty(0), np.ones((2, 2)), "train", None)
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_generator_parameter_count():
    net = build_generator(10, 10, np.random.default_rng(0))
    # (10->128 dense + norm) then (138->128 dense + norm) then 266->10 head.
    assert net.n_params == 22382


def test_initialization_is_bit_reproducible():
    a = build_generator(8, 8, np.random.default_rng(99))
    b = build_generator(8, 8, np.random.default_rng(99))
    np.testing.assert_array_equal(a.params, b.params)
    x = np.random.default_rng(1).normal(size=(5, 8))
    ya, _ = a.forward(x, mode="eval")
    yb, _ = b.forward(x, mode="eval")
    np.testing.assert_array_equal(ya, yb)


def test_spec_round_trip():
    net = build_critic(6, np.random.default_rng(15), hidden=8, sigmoid_output=True)
    clone = Network.from_specs(net.layer_specs(), net.params)
    x = np.random.default_rng(16).normal(size=(4, 6))
    np.testing.assert_array_equal(
        net.forward(x, mode="eval")[0], clone.forward(x, mode="eval")[0]
    )
    assert clone.layer_specs() == net.layer_specs()


def test_network_validates_parameter_length():
    with pytest.raises(ValueError):
        Network([Dense(3, 2)], params=np.zeros(5))
    with pytest.raises(ValueError):
        Network([Dense(3, 2)])
    with pytest.raises(ValueError):
        layer_from_spec({"type": "warp_core"})


def _generator(layers, seed):
    """A generator with random parameters everywhere, biases and affine too."""
    net = Network(layers, rng=np.random.default_rng(seed))
    net.params = np.random.default_rng(seed + 1).normal(0.0, 0.5, size=net.n_params)
    return net


# 0, 1 and 2 blocks; width 12 is a single GroupNorm group, width 16 eight;
# the last generator's blocks differ in width.
GENERATORS = {
    "head_only": lambda: [Dense(6, 4)],
    "one_block_of_width_12": lambda: [ResidualConcatBlock(6, 12), Dense(18, 4)],
    "two_blocks_of_width_16": lambda: [ResidualConcatBlock(6, 16), ResidualConcatBlock(22, 16),
                                       Dense(38, 4)],
    "widths_16_then_12": lambda: [ResidualConcatBlock(6, 16), ResidualConcatBlock(22, 12),
                                  Dense(34, 4)],
}


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
@pytest.mark.parametrize("rows", [7, 2 * ROW_BLOCK + 37])
def test_eval_workspace_is_the_eval_forward_bit_for_bit(make, rows):
    # Fewer rows than a block, and two full blocks and a tail block that
    # runs through the first rows of the same workspace.
    net = _generator(make(), seed=rows)
    x = np.random.default_rng(3).normal(size=(rows, 6))
    out = map_rows(EvalWorkspace(net, min(rows, ROW_BLOCK)), x)
    for start in range(0, rows, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        np.testing.assert_array_equal(out[block], net.forward(x[block], mode="eval")[0])


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_one_eval_workspace_keeps_no_state_between_calls(make):
    net = _generator(make(), seed=5)
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(40, 6)), rng.normal(size=(40, 6))
    workspace = EvalWorkspace(net, 40)
    first = workspace(a).copy()
    np.testing.assert_array_equal(workspace(b), net.forward(b, mode="eval")[0])
    np.testing.assert_array_equal(workspace(b[:3]), net.forward(b[:3], mode="eval")[0])
    np.testing.assert_array_equal(workspace(a), first)


@pytest.mark.parametrize("layers", [
    [],
    [Dense(6, 4), Relu(), Dense(4, 6)],
    [ResidualConcatBlock(6, 8)],
    [ResidualConcatBlock(6, 8), Dense(6, 4)],
    [Dense(6, 4), Dense(4, 4)],
], ids=["empty", "dense_relu_dense", "no_head", "unchained_head", "dense_before_the_head"])
def test_eval_workspace_runs_only_chained_blocks_and_a_dense_head(layers):
    net = Network(layers, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="generator"):
        check_generator(net)
    with pytest.raises(ValueError, match="generator"):
        EvalWorkspace(net, 4)
    check_generator(build_generator(6, 4, np.random.default_rng(0), width=8, blocks=2))


def test_adam_first_step_is_signed_lr():
    params = np.zeros(4)
    grad = np.array([0.5, -2.0, 1e-3, 0.0])
    new, state = adam_step(params, grad, AdamState.zeros(4), lr=0.1)
    # m_hat/sqrt(v_hat) = sign(g) when g != 0, up to the eps regularizer.
    np.testing.assert_allclose(new[:3], -0.1 * np.sign(grad[:3]), rtol=1e-4)
    assert new[3] == 0.0
    assert state.t == 1


def test_adam_accumulates_momentum():
    params = np.zeros(1)
    state = AdamState.zeros(1)
    grad = np.array([1.0])
    for _ in range(3):
        params, state = adam_step(params, grad, state, lr=0.1)
    assert state.t == 3
    assert params[0] == pytest.approx(-0.3, rel=1e-3)
