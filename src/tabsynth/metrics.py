"""Fidelity metrics for synthetic tables.

Everything here is a pure function of the two datasets.  The suite covers a
propensity-score discriminator (pMSE ratio), per-feature marginal distances
(KS for continuous, inverted chi-squared p-value for categorical), hypersphere
alpha-precision / beta-recall curves with their integrals, and PCA projection
histograms on the real data's eigenbasis.  Both datasets are always embedded
with the *real* table's encoders so the comparison happens in one space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoding import EncodedMatrix, encode
from .errors import ConfigError, DegenerateDataError, SchemaError
from .schema import ColumnKind, RawTable

DEFAULT_RIDGE = 1e-6
DEFAULT_GRID_STEP = 0.02
DEFAULT_BINS = 64

_IRLS_MAX_ITER = 100
_IRLS_GRAD_TOL = 1e-8


def _as_values(x) -> np.ndarray:
    v = x.values if isinstance(x, EncodedMatrix) else np.asarray(x, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("expected a 2-D matrix of encoded rows")
    return v


# ---------------------------------------------------------------------------
# propensity score / pMSE


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # clip the linear predictor so separable fits saturate instead of overflow
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def _design_matrix(features) -> np.ndarray:
    """The intercept column followed by the N x d features, column-major."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be N x d with one label per row")
    xa = np.empty((x.shape[0], x.shape[1] + 1), order="F")
    xa[:, 0] = 1.0
    xa[:, 1:] = x
    return xa


def _one_hot_codes(xa: np.ndarray, one_hot) -> tuple[list[np.ndarray], np.ndarray]:
    """For each feature range that is exactly one-hot, the design column of
    each row's 1; and the design columns of those ranges.

    A range qualifies when every entry is 0 or 1 and every row sums to 1.
    Any other range (a 0.5, two 1s, an all-zero row) gets no codes, so the
    fit treats its columns as dense.  No range gets codes when the qualifying
    ranges form more block pairs than they have columns.
    """
    d = xa.shape[1] - 1
    ranges = sorted((int(start), int(stop)) for start, stop in one_hot)
    for (_, stop), (start, _) in zip(ranges, ranges[1:]):
        if start < stop:
            raise ValueError("one_hot ranges must not overlap")
    codes, columns = [], [np.zeros(0, dtype=np.intp)]
    for start, stop in ranges:
        if not 0 <= start < stop <= d:
            raise ValueError(f"one_hot range ({start}, {stop}) is outside the {d} features")
        block = xa[:, 1 + start:1 + stop]
        if np.all((block == 0.0) | (block == 1.0)) and np.all(block.sum(axis=1) == 1.0):
            # each row's dot with 0..width-1 is the exact position of its 1
            hot = block @ np.arange(stop - start, dtype=np.float64)
            codes.append(1 + start + hot.astype(np.intp))
            columns.append(np.arange(1 + start, 1 + stop))
    if len(codes) * (len(codes) + 1) // 2 > sum(c.size for c in columns):
        # The flat cell indices hold N entries per block pair, so with more
        # pairs than one-hot columns they would outgrow those columns of xa
        # (many narrow blocks); the dense product is the cheaper Hessian then.
        return [], columns[0]
    return codes, np.concatenate(columns)


def fit_logistic(features, labels: np.ndarray, ridge: float = DEFAULT_RIDGE, one_hot=()):
    """Ridge logistic regression by IRLS; returns (weights, probabilities).

    ``weights[0]`` is the (unpenalized) intercept.  Stops when the penalized
    gradient norm drops below 1e-8 or after 100 iterations.

    ``one_hot`` lists (start, stop) feature ranges that hold one-hot blocks.
    The Hessian entries between two such blocks are weighted counts of their
    label pairs, taken with one ``bincount`` per iteration instead of a dense
    product; only the dense rows (intercept, continuous features and any range
    that fails the exactness check) go through a matrix product.  Counting
    needs N indices per block pair, so it is used only while the k verified
    blocks form no more pairs, k(k+1)/2, than they have columns; past that
    the whole Hessian is the dense product.  The result is the same fit up to
    rounding.
    """
    xa = _design_matrix(features)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if xa.shape[0] != y.shape[0]:
        raise ValueError("features must be N x d with one label per row")
    if xa.shape[0] < 2 or y.min() == y.max():
        raise DegenerateDataError("logistic fit needs both labels present")
    m = xa.shape[1]
    penalty = np.full(m, float(ridge))
    penalty[0] = 0.0  # intercept is never shrunk
    codes, hot = _one_hot_codes(xa, one_hot)
    dense = np.setdiff1d(np.arange(m), hot)
    # Flat Hessian cell of every row in every block pair a <= b; blocks are
    # sorted and disjoint, so pairs a < b land in the upper triangle.
    pairs = [(a, b) for a in range(len(codes)) for b in range(a, len(codes))]
    cells = np.concatenate([codes[a] * m + codes[b] for a, b in pairs]) if pairs else None
    w = np.zeros(m)
    for _ in range(_IRLS_MAX_ITER):
        s = _sigmoid(xa @ w)
        grad = xa.T @ (y - s) - penalty * w
        if np.linalg.norm(grad) <= _IRLS_GRAD_TOL:
            break
        wt = s * (1.0 - s)
        if cells is None:
            hess = np.empty((m, m))  # the dense product below writes every entry
        else:
            hess = np.bincount(cells, weights=np.tile(wt, len(pairs)),
                               minlength=m * m).reshape(m, m)
            hess += np.triu(hess, 1).T
        weighted = xa[:, dense]
        weighted *= wt[:, None]
        gram = weighted.T @ xa
        hess[dense] = gram
        hess[np.ix_(hot, dense)] = gram[:, hot].T
        hess[np.diag_indices_from(hess)] += penalty
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError("singular IRLS system") from exc
        w = w + step
    return w, _sigmoid(xa @ w)


def pmse_expected(n_real: int, n_synth: int, d: int) -> float:
    """Null expectation of the observed propensity MSE for a d-parameter fit."""
    total = n_real + n_synth
    p = n_real / total
    return p * (1.0 - p) * d / total


def pmse_ratio(real, synth, ridge: float = DEFAULT_RIDGE) -> float:
    """Observed/expected propensity MSE; ~1 when the discriminator is at chance.

    Label 1 marks synthetic rows.  The parameter count d includes the
    intercept, so d = encoded width + 1.  The categorical spans of an
    ``EncodedMatrix`` input are passed to the fit as its one-hot ranges.
    """
    xr, xs = _as_values(real), _as_values(synth)
    if xr.shape[1] != xs.shape[1]:
        raise SchemaError("pmse_ratio: width mismatch")
    encoded = next((x for x in (real, synth) if isinstance(x, EncodedMatrix)), None)
    one_hot = () if encoded is None else tuple(
        (s.start, s.stop) for s in encoded.spans if s.kind is ColumnKind.CATEGORICAL)
    n1, n2 = xr.shape[0], xs.shape[0]
    labels = np.concatenate([np.zeros(n1), np.ones(n2)])
    _, s = fit_logistic(np.concatenate([xr, xs]), labels, ridge, one_hot)
    total = n1 + n2
    observed = float(np.mean((s - n2 / total) ** 2))
    expected = pmse_expected(n1, n2, xr.shape[1] + 1)
    if expected == 0.0:
        raise DegenerateDataError("pmse_ratio: zero expected utility")
    return observed / expected


# ---------------------------------------------------------------------------
# marginal distances


def ks_distance(real_col: Sequence[float], synth_col: Sequence[float]) -> float:
    """Exact sup distance between the two empirical CDFs."""
    a = np.sort(np.asarray(real_col, dtype=np.float64))
    b = np.sort(np.asarray(synth_col, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise DegenerateDataError("ks_distance: empty column")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a,x)/Gamma(a), for
    ``a`` a positive multiple of 1/2: the chi-squared tail at a = dof/2.

    Starts from the closed form Q(1/2, x) = erfc(sqrt x) or Q(1, x) = e^-x
    and climbs by Q(b+1, x) = Q(b, x) + x^b e^-x / Gamma(b+1), each term
    taken in log space so that neither e^-x nor x^b leaves the float range.
    """
    if not (a > 0.0 and (2.0 * a).is_integer()):
        raise ValueError(f"gamma_q: a must be a positive multiple of 1/2, got {a!r}")
    if x < 0.0:
        raise ValueError("gamma_q: x must be non-negative")
    if x == 0.0:
        return 1.0
    if float(a).is_integer():
        b, q = 1.0, math.exp(-x)
    else:
        b, q = 0.5, math.erfc(math.sqrt(x))
    log_x = math.log(x)
    while b < a:
        q += math.exp(b * log_x - x - math.lgamma(b + 1.0))
        b += 1.0
    return min(q, 1.0)  # rounding can carry the sum a few ulps past 1


def _chi2_stat(real_counts: np.ndarray, synth_counts: np.ndarray):
    """Chi-squared statistic of synth against real-derived expectations.

    Categories with zero expected count are dropped from the sum and the
    degrees of freedom shrink accordingly (the statistic is undefined there).
    Returns (chi2, dof, dropped).
    """
    fr = np.asarray(real_counts, dtype=np.float64)
    fs = np.asarray(synth_counts, dtype=np.float64)
    if fr.shape != fs.shape:
        raise SchemaError("chi2: count vectors must share the vocabulary")
    total_r = fr.sum()
    if total_r == 0.0:
        raise DegenerateDataError("chi2: all-zero expected counts")
    f_exp = fr * (fs.sum() / total_r)
    keep = f_exp > 0.0
    dropped = int((~keep).sum())
    chi2 = float(np.sum((fs[keep] - f_exp[keep]) ** 2 / f_exp[keep]))
    dof = int(keep.sum()) - 1
    return chi2, dof, dropped


def _chi2_distance_dropped(real_counts, synth_counts) -> tuple[float, int]:
    """``chi2_distance`` and the number of categories the statistic dropped."""
    chi2, dof, dropped = _chi2_stat(real_counts, synth_counts)
    if dof <= 0:
        return (0.0 if chi2 == 0.0 else 1.0), dropped
    return 1.0 - gamma_q(dof / 2.0, chi2 / 2.0), dropped


def chi2_distance(real_counts, synth_counts) -> float:
    """1 - p_value of the chi-squared comparison (0 = identical profiles)."""
    return _chi2_distance_dropped(real_counts, synth_counts)[0]


def _label_counts(cells, index: dict) -> np.ndarray:
    """How often each label of ``index`` (label -> position) occurs in ``cells``."""
    positions = np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    return np.bincount(positions, minlength=len(index))


def marginal_distance(real: RawTable, synth: RawTable):
    """Mean per-feature distance (chi2 for categorical, KS for continuous).

    Returns (overall, per_feature, dropped_categories).
    """
    if not real.schema.compatible_with(synth.schema):
        raise SchemaError("marginal_distance: schema mismatch")
    width = len(real.schema.columns)
    real_cols = list(zip(*real.rows)) or [()] * width
    synth_cols = list(zip(*synth.rows)) or [()] * width
    per_feature = []
    dropped_total = 0
    for col, rv, sv in zip(real.schema.columns, real_cols, synth_cols):
        if col.kind is ColumnKind.CATEGORICAL:
            index = {tok: i for i, tok in enumerate(col.vocabulary)}
            dist, dropped = _chi2_distance_dropped(_label_counts(rv, index),
                                                   _label_counts(sv, index))
            dropped_total += dropped
        else:
            dist = ks_distance(rv, sv)
        per_feature.append((col.name, float(dist)))
    overall = float(np.mean([d for _, d in per_feature]))
    return overall, per_feature, dropped_total


# ---------------------------------------------------------------------------
# precision / recall hyperspheres


@dataclass(frozen=True)
class PrecisionRecallCurves:
    alphas: np.ndarray
    p_alpha: np.ndarray
    betas: np.ndarray
    r_beta: np.ndarray


def _quantile_radii(dists: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Nearest-rank quantiles: radius(a) = a-th order statistic, rank ceil(a*n)."""
    d = np.sort(dists)
    n = d.size
    ranks = np.maximum(np.ceil(grid * n - 1e-9).astype(int), 1)
    return d[ranks - 1]


def precision_recall_curves(real, synth, grid_step: float = DEFAULT_GRID_STEP) -> PrecisionRecallCurves:
    """Support coverage on mean-centered hyperspheres.

    P_alpha: fraction of synthetic rows inside the real alpha-sphere; R_beta is
    the mirror image with the roles swapped.
    """
    xr, xs = _as_values(real), _as_values(synth)
    if xr.shape[1] != xs.shape[1]:
        raise SchemaError("precision_recall_curves: width mismatch")
    if xr.shape[0] == 0 or xs.shape[0] == 0:
        raise DegenerateDataError("precision_recall_curves: empty dataset")
    steps = int(round(1.0 / grid_step))
    grid = np.arange(1, steps + 1) * grid_step
    grid[-1] = 1.0

    def coverage(base: np.ndarray, probe: np.ndarray) -> np.ndarray:
        center = base.mean(axis=0)
        radii = _quantile_radii(np.linalg.norm(base - center, axis=1), grid)
        probe_d = np.linalg.norm(probe - center, axis=1)
        return (probe_d[None, :] <= radii[:, None]).mean(axis=1)

    return PrecisionRecallCurves(grid, coverage(xr, xs), grid.copy(), coverage(xs, xr))


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # renamed in numpy 2


def auprc(curves: PrecisionRecallCurves):
    """Trapezoid integrals of both curves (0-anchored at alpha=0) and their product."""

    def integral(grid: np.ndarray, vals: np.ndarray) -> float:
        x = np.concatenate([[0.0], grid])
        y = np.concatenate([[0.0], vals])
        return float(_trapezoid(y, x))

    a = integral(curves.alphas, curves.p_alpha)
    b = integral(curves.betas, curves.r_beta)
    return a, b, a * b


# ---------------------------------------------------------------------------
# PCA projections


def jacobi_eigh(matrix: np.ndarray):
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns (eigenvalues, eigenvectors) sorted descending; eigenvectors are
    columns, each signed so its largest-magnitude component is positive.
    ``eigh`` reads only one triangle, so asymmetric input is rejected here.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("jacobi_eigh expects a symmetric matrix")
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(a.shape[0])]
    return vals, np.where(lead < 0, -vecs, vecs)


@dataclass(frozen=True)
class ProjectionResult:
    real_grid: np.ndarray
    other_grid: np.ndarray
    eigenvalues: np.ndarray
    components: np.ndarray  # 2 x width, rows are the top-2 eigenvectors
    center: np.ndarray
    box_min: np.ndarray
    box_max: np.ndarray
    bins: int


def pca_projection_histogram(real, other, bins: int = DEFAULT_BINS) -> ProjectionResult:
    """2-D histograms of both datasets on the real data's top-2 eigenbasis.

    The bounding box comes from the real projections; points of ``other``
    falling outside are clipped into the edge bins.
    """
    if bins < 1:
        raise ConfigError(f"pca_projection_histogram: bins must be >= 1, got {bins}")
    xr, xo = _as_values(real), _as_values(other)
    if xr.shape[1] != xo.shape[1]:
        raise SchemaError("pca_projection_histogram: width mismatch")
    if xr.shape[0] < 2:
        raise DegenerateDataError("pca_projection_histogram: need at least 2 real rows")
    center = xr.mean(axis=0)
    xc = xr - center
    cov = (xc.T @ xc) / (xr.shape[0] - 1)
    vals, vecs = jacobi_eigh(cov)
    comps = vecs[:, :2].T
    proj_r = xc @ comps.T
    proj_o = (xo - center) @ comps.T
    lo, hi = proj_r.min(axis=0), proj_r.max(axis=0)
    if np.any(hi - lo <= 0.0):
        raise DegenerateDataError("pca_projection_histogram: zero-variance data")
    edges = [np.linspace(lo[k], hi[k], bins + 1) for k in range(2)]
    grid_r, _, _ = np.histogram2d(proj_r[:, 0], proj_r[:, 1], bins=edges)
    clipped = np.clip(proj_o, lo, hi)
    grid_o, _, _ = np.histogram2d(clipped[:, 0], clipped[:, 1], bins=edges)
    return ProjectionResult(grid_r, grid_o, vals, comps, center, lo, hi, bins)


# ---------------------------------------------------------------------------
# the full report


@dataclass(frozen=True)
class FidelityReport:
    pmse_ratio: float
    marginal_distance: float
    alpha_precision_integral: float
    beta_recall_integral: float
    auprc: float
    per_feature: tuple
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "pmse_ratio": self.pmse_ratio,
            "marginal_distance": self.marginal_distance,
            "alpha_precision_integral": self.alpha_precision_integral,
            "beta_recall_integral": self.beta_recall_integral,
            "auprc": self.auprc,
            "per_feature": [{"name": n, "distance": d} for n, d in self.per_feature],
            "metadata": dict(self.metadata),
        }


def evaluate(real: RawTable, synth: RawTable, grid_step: float = DEFAULT_GRID_STEP,
             ridge: float = DEFAULT_RIDGE, metadata: dict | None = None) -> FidelityReport:
    """Full fidelity report; both tables are encoded with the real schema."""
    if not real.schema.compatible_with(synth.schema):
        raise SchemaError("evaluate: schema mismatch")
    mr = encode(real)
    ms = encode(RawTable(real.schema, synth.rows))
    ratio = pmse_ratio(mr, ms, ridge)
    md, per_feature, dropped = marginal_distance(real, synth)
    curves = precision_recall_curves(mr, ms, grid_step)
    a_int, b_int, area = auprc(curves)
    meta = {
        "n_real": len(real.rows),
        "n_synth": len(synth.rows),
        "pmse_d": mr.values.shape[1] + 1,
        "support": "mean-centered-hypersphere",
        "kld_direction": "KL(true || predicted)",
        "chi2_dropped_categories": dropped,
    }
    if metadata:
        meta.update(metadata)
    return FidelityReport(ratio, md, a_int, b_int, area, tuple(per_feature), meta)
