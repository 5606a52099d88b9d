"""Renyi-DP accounting for the subsampled Gaussian mechanism.

Each noisy gradient step is a Gaussian mechanism applied to a Poisson
subsample (rate q) of the data, with noise scale sigma relative to the
clipping norm.  Its Renyi divergence bound at order alpha is accumulated
additively across steps; the ledger converts the running totals to an
(epsilon, delta) statement via

    eps = min_alpha [ rdp(alpha) + log(1/delta) / (alpha - 1) ].

The per-step bound at order alpha is log A(alpha) / (alpha - 1), with

    A(alpha) = E_{z~N(0, sigma^2)}[((1-q) + q e^{(2z-1)/(2 sigma^2)})^alpha]

(Mironov, Talwar & Zhang, arXiv:1908.10530).  At q = 1 this is the plain
Gaussian mechanism, alpha / (2 sigma^2) exactly.  For q < 1 all orders of a
(q, sigma) pair are integrated together by the trapezoid rule on one z grid
of step sigma/8, summed in log space.  The integrand is smooth and decays
like a Gaussian on both sides, and for such integrands the trapezoid rule
converges exponentially as the step shrinks (Trefethen & Weideman, SIAM
Review 56(3), 2014): at this step integer and fractional orders alike agree
with 40-digit quadrature to within 3e-12 relative.
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

# The trapezoid grid for A(alpha): step sigma/8 over [-40 sigma, max alpha + 40 sigma].
# The Gaussian weight, of width sigma, is the narrowest feature of the integrand,
# and every term is centred in [0, alpha], so e^-800 at the ends is far below a float.
_STEPS_PER_SIGMA = 8.0
_REACH_IN_SIGMAS = 40.0
_EXP_LIMIT = 30.0  # past e^30 a 1 beside e^x is below float precision
_NEAR_ONE = 1e-2  # below this log A, sum A - 1 directly so the 1 does not swallow it
_MAX_CELLS = 1 << 20  # orders x grid cells per array; the grid grows as 1/sigma


def _log_moments(q: float, sigma: float, orders: np.ndarray) -> np.ndarray:
    """log A(alpha) at every order, by the trapezoid rule on one z grid.

    r(z) = (1-q) + q e^{(2z-1)/(2 sigma^2)} is the likelihood ratio of the
    mixture, and log r is computed without cancellation on either side of
    its knee.  Orders go through in blocks of at most ``_MAX_CELLS`` cells.
    """
    h = sigma / _STEPS_PER_SIGMA
    reach = _REACH_IN_SIGMAS * sigma
    z = np.arange(-reach, orders.max() + reach + h, h)
    two_var = 2.0 * sigma * sigma
    log_w = math.log(h / (sigma * math.sqrt(2.0 * math.pi))) - z * z / two_var
    u = (2.0 * z - 1.0) / two_var
    log_r = np.where(u < _EXP_LIMIT, np.log1p(q * np.expm1(np.minimum(u, _EXP_LIMIT))),
                     np.logaddexp(math.log1p(-q), math.log(q) + u))
    rows = max(1, _MAX_CELLS // z.size)
    return np.concatenate([_log_trapezoid(log_w, orders[i:i + rows, None] * log_r)
                           for i in range(0, orders.size, rows)])


def _log_trapezoid(log_w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log sum_z w(z) e^{x(z)} for each row of x, clamped at 0: A >= 1 by
    Jensen, since E[r] = 1."""
    t = log_w + x
    top = t.max(axis=1)
    log_a = top + np.log(np.exp(t - top[:, None]).sum(axis=1))
    near_one = log_a < _NEAR_ONE
    if near_one.any():
        # sum w (e^x - 1); where e^x would overflow expm1, w e^x = e^t stays below ~1
        w, x, t = np.exp(log_w), x[near_one], t[near_one]
        excess = np.where(x > _EXP_LIMIT, np.exp(t) - w, w * np.expm1(np.minimum(x, _EXP_LIMIT)))
        log_a[near_one] = np.log1p(excess.sum(axis=1))
    return np.maximum(log_a, 0.0)


def rdp_subsampled_gaussian(q: float, sigma: float, alpha: float) -> float:
    """Per-step RDP bound of one noisy gradient step at order alpha."""
    return _step_vector(q, sigma, (alpha,))[0]


@lru_cache(maxsize=256)
def _step_vector(q: float, sigma: float, orders: tuple[float, ...]) -> tuple[float, ...]:
    """Per-step RDP bound of one noisy gradient step at every order."""
    if not 0.0 < q <= 1.0:
        raise PrivacyError(f"sampling rate must be in (0, 1], got {q}")
    if sigma <= 0.0:
        raise PrivacyError(f"noise multiplier must be positive, got {sigma}")
    for alpha in orders:
        if alpha <= 1.0:
            raise PrivacyError(f"Renyi order must exceed 1, got {alpha}")
    alphas = np.array(orders, dtype=float)
    if q == 1.0:
        return tuple((alphas / (2.0 * sigma * sigma)).tolist())
    return tuple((_log_moments(q, sigma, alphas) / (alphas - 1.0)).tolist())


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
    orders = np.array(ledger.orders)
    return float(np.min(ledger.accumulated + math.log(1.0 / delta) / (orders - 1.0)))
