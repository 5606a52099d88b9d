"""RDP accountant checks against independently computed moment values."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from tabsynth.accountant import (
    DEFAULT_ORDERS,
    RdpLedger,
    accumulate_step,
    count_step,
    fresh_ledger,
    rdp_subsampled_gaussian,
    to_epsilon_delta,
)
from tabsynth.errors import PrivacyError

# Reference values for the per-step bound, computed by adaptive quadrature of
#   A(alpha) = E_{x~N(0,s^2)}[((1-q) + q exp((2x-1)/(2 s^2)))^alpha]
# with mpmath at 50 digits; worst quadrature residual was ~6e-7 relative.
MOMENT_ORACLE = [
    (0.01, 1.0, 2.0, 1.718134220746e-04),
    (0.01, 1.0, 16.0, 3.087850783696e+00),
    (0.01, 1.0, 1.5, 1.272537433277e-04),
    (0.1, 0.5, 4.0, 4.929960718133e+00),
    (0.1, 2.0, 8.0, 1.372543010322e-02),
    (0.1, 1.0, 1.25, 9.408440725994e-03),
    (0.3, 1.0, 2.5, 2.114780972443e-01),
    (0.02, 1.2, 32.0, 7.072893837810e+00),
    (0.5, 0.7, 3.0, 2.050360721880e+00),
    (0.1, 1.0, 64.0, 2.966086593728e+01),
    (0.2, 1.5, 1.75, 1.893673685979e-02),
    (1.0, 1.0, 8.0, 4.000000000000e+00),
]


@pytest.mark.parametrize("q,sigma,alpha,expected", MOMENT_ORACLE)
def test_per_step_bound_matches_quadrature(q, sigma, alpha, expected):
    got = rdp_subsampled_gaussian(q, sigma, alpha)
    assert got == pytest.approx(expected, rel=1e-5)


def _binomial_moment(q, sigma, alpha):
    """The per-step bound from the integer-order binomial sum
    A = sum_i C(alpha, i) (1-q)^(alpha-i) q^i exp((i^2 - i) / (2 sigma^2)),
    in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        q, two_var = Decimal(q), 2 * Decimal(sigma) ** 2
        total = sum(math.comb(alpha, i) * (1 - q) ** (alpha - i) * q ** i
                    * (Decimal(i * i - i) / two_var).exp() for i in range(alpha + 1))
        return float(total.ln() / (alpha - 1))


@pytest.mark.parametrize("q,sigma", [(0.0128, 1.5), (0.001, 10.0), (0.1, 0.8), (0.5, 1.0)])
def test_integer_orders_match_a_high_precision_binomial_sum(q, sigma):
    for alpha in (2, 3, 16, 64, 128, 512):
        expected = _binomial_moment(q, sigma, alpha)
        assert rdp_subsampled_gaussian(q, sigma, float(alpha)) == pytest.approx(expected,
                                                                                 rel=1e-9)


def test_full_batch_closed_form():
    # q = 1 is the plain Gaussian mechanism: alpha / (2 sigma^2) exactly.
    for sigma in (0.5, 1.0, 10.0):
        for alpha in (1.5, 2.0, 7.0, 64.0):
            got = rdp_subsampled_gaussian(1.0, sigma, alpha)
            assert abs(got - alpha / (2.0 * sigma * sigma)) < 1e-9


def test_subsampling_never_hurts():
    for q in (0.01, 0.1, 0.5, 0.99):
        for alpha in (1.5, 2.0, 8.0, 32.0):
            sub = rdp_subsampled_gaussian(q, 1.0, alpha)
            full = rdp_subsampled_gaussian(1.0, 1.0, alpha)
            assert 0.0 <= sub <= full + 1e-12


@pytest.mark.parametrize(
    "q,sigma,alpha",
    [(0.0, 1.0, 2.0), (1.5, 1.0, 2.0), (0.1, 0.0, 2.0), (0.1, -1.0, 2.0), (0.1, 1.0, 1.0)],
)
def test_per_step_bound_rejects_bad_arguments(q, sigma, alpha):
    with pytest.raises(PrivacyError):
        rdp_subsampled_gaussian(q, sigma, alpha)


def test_default_order_grid():
    assert DEFAULT_ORDERS[:3] == (1.25, 1.5, 1.75)
    assert DEFAULT_ORDERS[3:-3] == tuple(float(a) for a in range(2, 65))
    assert DEFAULT_ORDERS[-3:] == (128.0, 256.0, 512.0)
    assert list(DEFAULT_ORDERS) == sorted(DEFAULT_ORDERS)


def test_empty_ledger_epsilon():
    # No steps: eps = min_alpha log(1/delta)/(alpha-1), attained at the top order.
    eps = to_epsilon_delta(fresh_ledger(), delta=1e-5)
    assert eps == pytest.approx(math.log(1e5) / 511.0, rel=1e-12)
    assert eps == pytest.approx(0.02253, abs=5e-6)


def test_single_full_batch_step_epsilon():
    ledger = accumulate_step(fresh_ledger(), q=1.0, sigma=1.0)
    eps = to_epsilon_delta(ledger, delta=1e-5)
    assert eps == pytest.approx(5.3026, abs=0.02)


def test_accumulation_is_exactly_additive():
    one = accumulate_step(fresh_ledger(), q=0.1, sigma=1.0)
    two = accumulate_step(one, q=0.1, sigma=1.0)
    assert np.array_equal(two.accumulated, 2.0 * one.accumulated)
    ten = fresh_ledger()
    for _ in range(10):
        ten = accumulate_step(ten, q=0.1, sigma=1.0)
    assert np.array_equal(ten.accumulated, 10.0 * one.accumulated)
    assert ten.steps_taken == 10


def test_mixed_steps_accumulate_independently():
    ledger = fresh_ledger()
    ledger = accumulate_step(ledger, q=0.1, sigma=1.0)
    ledger = accumulate_step(ledger, q=0.5, sigma=2.0)
    a = np.array([rdp_subsampled_gaussian(0.1, 1.0, o) for o in ledger.orders])
    b = np.array([rdp_subsampled_gaussian(0.5, 2.0, o) for o in ledger.orders])
    np.testing.assert_allclose(ledger.accumulated, a + b, rtol=1e-15)


def test_epsilon_monotone_in_each_knob():
    def eps(q, sigma, steps):
        ledger = fresh_ledger()
        for _ in range(steps):
            ledger = accumulate_step(ledger, q=q, sigma=sigma)
        return to_epsilon_delta(ledger, delta=1e-5)

    assert eps(0.1, 1.0, 1) <= eps(0.1, 1.0, 10) <= eps(0.1, 1.0, 100)
    assert eps(0.01, 1.0, 10) <= eps(0.1, 1.0, 10) <= eps(1.0, 1.0, 10)
    assert eps(0.1, 2.0, 10) <= eps(0.1, 1.0, 10) <= eps(0.1, 0.5, 10)


def test_count_step_charges_nothing():
    ledger = accumulate_step(fresh_ledger(), q=0.1, sigma=1.0)
    counted = count_step(ledger)
    assert counted.steps_taken == ledger.steps_taken + 1
    assert np.array_equal(counted.accumulated, ledger.accumulated)
    assert to_epsilon_delta(counted, 1e-5) == to_epsilon_delta(ledger, 1e-5)


def test_state_round_trip():
    ledger = fresh_ledger()
    for _ in range(3):
        ledger = accumulate_step(ledger, q=0.05, sigma=1.2)
    state = ledger.to_state()
    assert set(state) == {"orders", "accumulated", "steps"}
    assert state["steps"] == 3

    restored = RdpLedger.from_state(state)
    assert restored.steps_taken == 3
    assert to_epsilon_delta(restored, 1e-5) == pytest.approx(
        to_epsilon_delta(ledger, 1e-5), rel=1e-12
    )
    # Accounting continues from the restored totals.
    cont = accumulate_step(restored, q=0.05, sigma=1.2)
    four = accumulate_step(ledger, q=0.05, sigma=1.2)
    np.testing.assert_allclose(cont.accumulated, four.accumulated, rtol=1e-14)
    assert cont.steps_taken == 4


def test_state_rejects_malformed_input():
    good = accumulate_step(fresh_ledger(), q=0.1, sigma=1.0).to_state()
    with pytest.raises(PrivacyError):
        RdpLedger.from_state({"orders": good["orders"], "steps": 1})
    bad = dict(good)
    bad["accumulated"] = good["accumulated"][:-1]
    with pytest.raises(PrivacyError):
        RdpLedger.from_state(bad)
    with pytest.raises(PrivacyError):
        RdpLedger.from_state({"orders": good["orders"], "accumulated": "xyz", "steps": 1})


def test_ledger_validates_order_grid():
    with pytest.raises(PrivacyError):
        RdpLedger((2.0, 1.5))
    with pytest.raises(PrivacyError):
        RdpLedger((1.0, 2.0))
    with pytest.raises(PrivacyError):
        RdpLedger((2.0, 2.0, 3.0))


def test_epsilon_delta_validates_delta():
    ledger = fresh_ledger()
    for delta in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(PrivacyError):
            to_epsilon_delta(ledger, delta)
