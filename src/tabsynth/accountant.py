"""Renyi-DP accounting for the subsampled Gaussian mechanism.

Each noisy gradient step is a Gaussian mechanism applied to a Poisson
subsample (rate q) of the data, with noise scale sigma relative to the
clipping norm.  Its Renyi divergence bound at order alpha is accumulated
additively across steps; the ledger converts the running totals to an
(epsilon, delta) statement via

    eps = min_alpha [ rdp(alpha) + log(1/delta) / (alpha - 1) ].

The per-step bound follows the standard moment computation: at q = 1 the
Gaussian mechanism gives alpha / (2 sigma^2) exactly; for q < 1 the moment
E[((1-q) + q e^{(2x-1)/(2 sigma^2)})^alpha] is split into two
erfc-weighted binomial series (Mironov, Talwar & Zhang, arXiv:1908.10530),
summed in log space.  One series serves every order: at integer alpha it
ends after alpha + 1 terms and equals the plain binomial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import PrivacyError

# Default order grid: a few fractional orders below 2 to serve tiny budgets,
# a dense integer run, then sparse large orders for the small-q regime.
DEFAULT_ORDERS: tuple[float, ...] = (1.25, 1.5, 1.75) + tuple(
    float(a) for a in range(2, 65)
) + (128.0, 256.0, 512.0)

_NEGLIGIBLE_LOG_TERM = -40.0  # series terms below e^-40 cannot move the total


def _log_sub(log_a: float, log_b: float) -> float:
    """log(e^a - e^b); requires a >= b."""
    if log_b == -math.inf:
        return log_a
    if log_b > log_a:
        raise PrivacyError("log-space subtraction went negative")
    if log_b == log_a:
        return -math.inf
    return log_a + math.log1p(-math.exp(log_b - log_a))


def _log_erfc(x: float) -> float:
    """log(erfc(x)), using the asymptotic tail once erfc underflows."""
    r = math.erfc(x)
    if r > 0.0:
        return math.log(r)
    # erfc(x) ~ exp(-x^2) / (x sqrt(pi)) * (1 - 1/(2x^2) + 3/(4x^4) - ...)
    return (
        -0.5 * math.log(math.pi)
        - math.log(x)
        - x * x
        - 0.5 / (x * x)
        + 0.625 / x**4
        - (37.0 / 24.0) / x**6
    )


def _log_a(q: float, sigma: float, alpha: float) -> float:
    """Log of the moment A(alpha), for any order alpha > 1.

    The integral defining A(alpha) is split at z0 = sigma^2 log(1/q - 1) + 1/2,
    where the mixture density crosses over; each half expands into an
    erfc-weighted binomial series.  Generalized binomial coefficients are
    built up incrementally and can change sign, so positive and negative
    contributions are folded in log space.  At integer alpha the
    coefficients stay positive, the series stops at i = alpha, and the two
    halves add up to the plain binomial sum since erfc(x) + erfc(-x) = 2.
    """
    log_a0 = log_a1 = -math.inf
    z0 = sigma * sigma * math.log(1.0 / q - 1.0) + 0.5
    log_q, log_1mq = math.log(q), math.log1p(-q)
    sqrt2s = math.sqrt(2.0) * sigma

    log_coef, sign = 0.0, 1.0  # C(alpha, 0) = 1
    i = 0
    while True:
        j = alpha - i
        log_t0 = log_coef + i * log_q + j * log_1mq
        log_t1 = log_coef + j * log_q + i * log_1mq
        log_e0 = math.log(0.5) + _log_erfc((i - z0) / sqrt2s)
        log_e1 = math.log(0.5) + _log_erfc((z0 - j) / sqrt2s)
        log_s0 = log_t0 + (i * i - i) / (2.0 * sigma * sigma) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * sigma * sigma) + log_e1
        if sign > 0:
            log_a0 = np.logaddexp(log_a0, log_s0)
            log_a1 = np.logaddexp(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)

        # C(alpha, i+1) = C(alpha, i) * (alpha - i) / (i + 1)
        factor = (alpha - i) / (i + 1)
        if factor == 0.0:
            break
        log_coef += math.log(abs(factor))
        if factor < 0:
            sign = -sign
        i += 1
        if i > alpha and max(log_s0, log_s1) < _NEGLIGIBLE_LOG_TERM:
            break
    return float(np.logaddexp(log_a0, log_a1))


def rdp_subsampled_gaussian(q: float, sigma: float, alpha: float) -> float:
    """Per-step RDP bound of one noisy gradient step at order alpha."""
    if not 0.0 < q <= 1.0:
        raise PrivacyError(f"sampling rate must be in (0, 1], got {q}")
    if sigma <= 0.0:
        raise PrivacyError(f"noise multiplier must be positive, got {sigma}")
    if alpha <= 1.0:
        raise PrivacyError(f"Renyi order must exceed 1, got {alpha}")
    if q == 1.0:
        return alpha / (2.0 * sigma * sigma)
    return _log_a(q, sigma, alpha) / (alpha - 1.0)


@lru_cache(maxsize=256)
def _step_vector(q: float, sigma: float, orders: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(rdp_subsampled_gaussian(q, sigma, a) for a in orders)


@dataclass(frozen=True)
class RdpLedger:
    """Running RDP totals over a fixed order grid.

    Internally the ledger keeps a step count per (q, sigma) pair instead of
    a float accumulator, so k identical steps report exactly k times the
    one-step cost.  ``baseline`` carries totals restored from disk.
    """

    orders: tuple[float, ...]
    steps_taken: int = 0
    step_counts: tuple[tuple[tuple[float, float], int], ...] = ()
    baseline: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if list(self.orders) != sorted(set(self.orders)):
            raise PrivacyError("order grid must be strictly ascending")
        if any(a <= 1.0 for a in self.orders):
            raise PrivacyError("all Renyi orders must exceed 1")

    @property
    def accumulated(self) -> np.ndarray:
        total = np.array(self.baseline if self.baseline is not None else [0.0] * len(self.orders))
        for (q, sigma), count in self.step_counts:
            total = total + count * np.array(_step_vector(q, sigma, self.orders))
        return total

    def to_state(self) -> dict:
        return {
            "orders": list(self.orders),
            "accumulated": [float(v) for v in self.accumulated],
            "steps": self.steps_taken,
        }

    @staticmethod
    def from_state(state: dict) -> "RdpLedger":
        try:
            orders = tuple(float(a) for a in state["orders"])
            accumulated = tuple(float(v) for v in state["accumulated"])
            steps = int(state["steps"])
        except (TypeError, KeyError, ValueError) as exc:
            raise PrivacyError(f"malformed ledger state: {exc}") from exc
        if len(accumulated) != len(orders):
            raise PrivacyError("ledger state length mismatch")
        if steps < 0 or (steps == 0 and any(accumulated)):
            raise PrivacyError(f"ledger state charges privacy over {steps} steps")
        return RdpLedger(orders, steps_taken=steps, baseline=accumulated)


def fresh_ledger() -> RdpLedger:
    """An empty ledger over ``DEFAULT_ORDERS``."""
    return RdpLedger(DEFAULT_ORDERS)


def accumulate_step(ledger: RdpLedger, q: float, sigma: float) -> RdpLedger:
    """Charge one subsampled-Gaussian step to the ledger."""
    _step_vector(q, sigma, ledger.orders)  # validate (q, sigma) eagerly
    counts = dict(ledger.step_counts)
    counts[(q, sigma)] = counts.get((q, sigma), 0) + 1
    return replace(ledger, steps_taken=ledger.steps_taken + 1, step_counts=tuple(counts.items()))


def count_step(ledger: RdpLedger) -> RdpLedger:
    """Advance the step counter without charging any privacy cost.

    Unprivatized training still counts its updates here so the one-update-
    per-batch bookkeeping holds whether or not an accountant is attached.
    """
    return replace(ledger, steps_taken=ledger.steps_taken + 1)


def to_epsilon_delta(ledger: RdpLedger, delta: float) -> float:
    """Tightest epsilon over the order grid at the given delta."""
    if not 0.0 < delta < 1.0:
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    if not ledger.orders:
        return math.inf
    log_inv_delta = math.log(1.0 / delta)
    totals = ledger.accumulated
    return float(min(totals[i] + log_inv_delta / (a - 1.0) for i, a in enumerate(ledger.orders)))
