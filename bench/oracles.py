"""Output checks computed apart from the program.

Each check returns a list of problems (empty when the output is right).
Nothing here calls into ``tabsynth``: the privacy oracle integrates the
subsampled-Gaussian moment numerically, marginals come from ``scipy``,
and the projection is checked against ``numpy.linalg.eigh`` of a matrix the
benchmark encodes itself.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, stats

from inputs import RING_MODES, RING_SIGMA, Table

# The program's order grid (tabsynth.accountant.DEFAULT_ORDERS), restated so
# that the oracle does not read it from the program.
ORDERS = (1.25, 1.5, 1.75) + tuple(float(a) for a in range(2, 65)) + (128.0, 256.0, 512.0)

EPSILON_TOLERANCE = 1e-9      # absolute, on epsilon
KS_TOLERANCE = 1e-12          # absolute, on each KS statistic
CHI2_TOLERANCE = 1e-9         # absolute, on each 1 - p value
EIGEN_TOLERANCE = 1e-9        # relative to the largest eigenvalue


# ---------------------------------------------------------------------------
# privacy


def sgm_rdp(q: float, sigma: float, alpha: float) -> float:
    """RDP of one Poisson-subsampled Gaussian step at order alpha.

    A(alpha) = E_{z ~ N(0, s^2)} [((1 - q) + q exp((2z - 1) / (2 s^2)))^alpha],
    integrated numerically; rdp = log A / (alpha - 1).  The integrand is
    evaluated in log space and scaled by its peak so that large orders do not
    overflow.  It has a bulk near 0 and, for large alpha, a second peak near
    z = alpha, so the quadrature is split around both.
    """
    c = 1.0 / (2.0 * sigma * sigma)
    log_norm = -0.5 * math.log(2.0 * math.pi * sigma * sigma)

    def log_f(z):
        return -z * z * c + log_norm + alpha * np.logaddexp(
            math.log1p(-q), math.log(q) + (2.0 * z - 1.0) * c)

    grid = np.arange(-12.0 * sigma, alpha + 12.0 * sigma, sigma / 4.0)
    values = log_f(grid)
    top, peak = float(values.max()), float(grid[int(np.argmax(values))])
    width = 12.0 * sigma
    points = sorted({-width, width, peak - width, peak, peak + width})
    area, _ = integrate.quad(lambda z: math.exp(log_f(z) - top),
                             points[0] - 3.0 * width, points[-1] + 3.0 * width,
                             points=points, limit=200, epsabs=0.0, epsrel=1e-13)
    return (top + math.log(area)) / (alpha - 1.0)


class PrivacyOracle:
    """Epsilon after k steps, from per-order RDP computed by :func:`sgm_rdp`."""

    def __init__(self, q: float, sigma: float, delta: float):
        self.rdp = np.array([sgm_rdp(q, sigma, a) for a in ORDERS])
        self.penalty = math.log(1.0 / delta) / (np.array(ORDERS) - 1.0)

    def epsilon(self, steps: int) -> float:
        return float(np.min(steps * self.rdp + self.penalty))

    def max_steps(self, target: float) -> int:
        """The largest k whose epsilon stays within the target."""
        k = 0
        while self.epsilon(k + 1) <= target:
            k += 1
        return k


def check_privacy(bundle_path: Path, oracle: PrivacyOracle, target: float) -> list[str]:
    bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
    name = bundle_path.name
    spent = bundle["epsilon_spent"]
    steps = int(bundle["ledger"]["steps"])
    problems = []
    if spent is None or spent > target:
        problems.append(f"{name}: epsilon {spent} exceeds the target {target}")
        return problems
    expected = oracle.epsilon(steps)
    if abs(spent - expected) > EPSILON_TOLERANCE:
        problems.append(f"{name}: epsilon {spent!r} after {steps} steps, oracle {expected!r}")
    k_max = oracle.max_steps(target)
    if steps != k_max:
        problems.append(f"{name}: halted after {steps} steps, budget allows exactly {k_max}")
    return problems


# ---------------------------------------------------------------------------
# sampled tables


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_table(path: Path, real: Table, rows: int) -> tuple[list[str], list[str]]:
    """Row count, and every cell valid under the real table's schema.

    Returns (problems, known faults).  ``encoding.decode`` maps the top of
    its [0, 1] clip to (max - min) + min, which can round to one ulp above
    max; such values are a known fault, reported apart from the problems
    because whether they occur depends on the seed.
    """
    header, body = read_csv(path)
    name = path.name
    if header != [c.name for c in real.columns]:
        return [f"{name}: header {header} differs from the real table"], []
    problems, known = [], []
    if len(body) != rows:
        problems.append(f"{name}: {len(body)} rows, {rows} requested")
    for j, col in enumerate(real.columns):
        cells = [row[j] for row in body]
        if col.categorical:
            bad = set(cells) - set(col.labels)
            if bad:
                problems.append(f"{name}: column {col.name} has unknown labels {sorted(bad)[:3]}")
            continue
        lo, hi = float(col.values.min()), float(col.values.max())
        try:
            values = np.array([float(c) for c in cells])
        except ValueError as exc:
            problems.append(f"{name}: column {col.name}: {exc}")
            continue
        decoded_top = (hi - lo) * 1.0 + lo
        if np.any(values < lo) or np.any(values > max(hi, decoded_top)):
            problems.append(f"{name}: column {col.name} leaves [{lo!r}, {hi!r}]")
        above = int(np.sum(values > hi))
        if above and decoded_top > hi:
            known.append(f"{name}: column {col.name}: {above} values {decoded_top!r} "
                         f"above max {hi!r}")
        if col.integer and not all(c.lstrip("-").isdigit() for c in cells):
            problems.append(f"{name}: integer column {col.name} holds a non-integer")
    return problems, known


# ---------------------------------------------------------------------------
# reports and projections


def _chi2_distance(real_cells: list[str], synth_cells: list[str], labels) -> float:
    """1 - p of the chi-squared test, dropping zero-expected categories."""
    index = {label: i for i, label in enumerate(labels)}
    fr = np.bincount([index[c] for c in real_cells], minlength=len(labels)).astype(float)
    fs = np.bincount([index[c] for c in synth_cells], minlength=len(labels)).astype(float)
    expected = fr * (fs.sum() / fr.sum())
    keep = expected > 0.0
    chi2 = float(np.sum((fs[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(keep.sum()) - 1
    if dof <= 0:
        return 0.0 if chi2 == 0.0 else 1.0
    return float(stats.chi2.cdf(chi2, dof))


def check_report(report_path: Path, real: Table, synth_path: Path) -> list[str]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    name = report_path.name
    _, body = read_csv(synth_path)
    problems = []
    distances = {f["name"]: f["distance"] for f in report["per_feature"]}
    for j, col in enumerate(real.columns):
        synth_cells = [row[j] for row in body]
        got = distances.get(col.name)
        if got is None:
            problems.append(f"{name}: no distance for column {col.name}")
            continue
        if col.categorical:
            want = _chi2_distance(real.cells(col), synth_cells, col.labels)
            tol = CHI2_TOLERANCE
        else:
            want = float(stats.ks_2samp(col.values, np.array(synth_cells, dtype=float),
                                           method="asymp").statistic)
            tol = KS_TOLERANCE
        if abs(got - want) > tol:
            problems.append(f"{name}: column {col.name} distance {got!r}, oracle {want!r}")
    for key in ("alpha_precision_integral", "beta_recall_integral", "auprc"):
        if not 0.0 <= report[key] <= 1.0:
            problems.append(f"{name}: {key} {report[key]!r} outside [0, 1]")
    if report["metadata"]["n_real"] != real.n_rows or report["metadata"]["n_synth"] != len(body):
        problems.append(f"{name}: row counts in metadata are wrong")
    return problems


def check_projection(grid_path: Path, real: Table, synth_rows: int) -> list[str]:
    name = grid_path.name
    basis = json.loads(Path(str(grid_path) + ".basis.json").read_text(encoding="utf-8"))
    x = real.encoded()
    xc = x - x.mean(axis=0)
    want = np.linalg.eigh((xc.T @ xc) / (x.shape[0] - 1))[0][::-1]
    got = np.array(basis["eigenvalues"])
    problems = []
    if got.shape != want.shape or np.max(np.abs(got - want)) > EIGEN_TOLERANCE * want[0]:
        problems.append(f"{name}: eigenvalues differ from numpy.linalg.eigh")
    _, body = read_csv(grid_path)
    real_total = sum(int(r[2]) for r in body)
    other_total = sum(int(r[3]) for r in body)
    if real_total != real.n_rows or other_total != synth_rows:
        problems.append(f"{name}: grid counts {real_total}/{other_total}, "
                        f"rows {real.n_rows}/{synth_rows}")
    return problems


# ---------------------------------------------------------------------------
# mode coverage


def modes_covered(synth_path: Path, centers: np.ndarray) -> tuple[int, list[float]]:
    """Modes holding at least 2% of the samples within 3 sigma of their centre."""
    _, body = read_csv(synth_path)
    pts = np.array(body, dtype=float)
    fractions = [float((np.linalg.norm(pts - c, axis=1) <= 3.0 * RING_SIGMA).mean())
                 for c in centers]
    return sum(f >= 0.02 for f in fractions), fractions


def modes_ok(covered: int) -> bool:
    return covered >= RING_MODES - 1
