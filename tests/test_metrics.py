"""Fidelity metrics against hand values and scipy cross-checks."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from tabsynth.encoding import encode
from tabsynth.errors import DegenerateDataError, SchemaError
from tabsynth.metrics import (
    FidelityReport,
    _chi2_stat,
    _design_matrix,
    _one_hot_codes,
    _quantile_radii,
    auprc,
    chi2_distance,
    evaluate,
    fit_logistic,
    gamma_q,
    jacobi_eigh,
    ks_distance,
    marginal_distance,
    pca_projection_histogram,
    pmse_expected,
    pmse_ratio,
    precision_recall_curves,
)
from tabsynth.schema import ColumnKind, ColumnSchema, RawTable, TableSchema

# ---------------------------------------------------------------------------
# propensity MSE


def test_pmse_expected_hand_value():
    assert pmse_expected(100, 100, 4) == 0.005
    assert pmse_expected(300, 100, 5) == pytest.approx(0.75 * 0.25 * 5 / 400, rel=1e-15)


def test_logistic_null_predicts_base_rate():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(1000, 3))
    labels = np.repeat([0.0, 1.0], 500)
    _, s = fit_logistic(features, labels)
    assert abs(s.mean() - 0.5) < 0.02
    assert s.std() < 0.1


def test_logistic_separable_data():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(400, 1))
    labels = (x[:, 0] > 0.0).astype(float)
    _, s = fit_logistic(x, labels)
    assert ((s > 0.5) == (labels == 1.0)).mean() > 0.99


def test_logistic_huge_ridge_flattens_coefficients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 2))
    labels = (x[:, 0] > 0.0).astype(float)
    beta, s = fit_logistic(x, labels, ridge=1e9)
    assert np.max(np.abs(beta[1:])) < 1e-6  # intercept stays free
    np.testing.assert_allclose(s, labels.mean(), atol=1e-4)


def test_pmse_ratio_near_one_under_the_null():
    # Same-distribution pairs: the ratio concentrates around 1.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(500, 12))
        b = rng.normal(size=(500, 12))
        assert 0.2 < pmse_ratio(a, b) < 3.0


def test_pmse_ratio_blows_up_when_separable():
    a = np.random.default_rng(3).normal(0.0, 1.0, size=(200, 3))
    b = np.random.default_rng(4).normal(10.0, 1.0, size=(200, 3))
    assert pmse_ratio(a, b) > 10.0


def test_pmse_ratio_rejects_width_mismatch():
    with pytest.raises(SchemaError):
        pmse_ratio(np.zeros((10, 3)), np.zeros((10, 4)))


# Several categoricals (one binary, one with a label neither side uses) and
# continuous columns between them, so one-hot and dense columns interleave.
ONE_HOT_SCHEMA = TableSchema((
    ColumnSchema("city", ColumnKind.CATEGORICAL, vocabulary=("a", "b", "c", "d", "ghost")),
    ColumnSchema("x", ColumnKind.CONTINUOUS, minimum=-4.0, maximum=4.0),
    ColumnSchema("flag", ColumnKind.CATEGORICAL, vocabulary=("y", "n")),
    ColumnSchema("tier", ColumnKind.CATEGORICAL, vocabulary=tuple("pqrstu")),
    ColumnSchema("z", ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0),
))


def _one_hot_pair():
    """Encoded real (400 rows) and synthetic (300 rows, shifted) matrices."""
    def rows(seed, n, shift):
        rng = np.random.default_rng(seed)
        return [(str(rng.choice(list("abcd"), p=[0.4 - shift, 0.3, 0.2, 0.1 + shift])),
                 float(np.clip(rng.normal(shift * 4.0, 1.0), -4.0, 4.0)),
                 "y" if rng.random() < 0.5 + shift else "n",
                 str(rng.choice(list("pqrstu"))),
                 float(rng.random()))
                for _ in range(n)]

    real = encode(RawTable(ONE_HOT_SCHEMA, rows(21, 400, 0.0)))
    synth = encode(RawTable(ONE_HOT_SCHEMA, rows(22, 300, 0.15)))
    return real, synth


def _one_hot_ranges(matrix):
    return [(s.start, s.stop) for s in matrix.spans if s.kind is ColumnKind.CATEGORICAL]


def _assert_same_fit(features, labels, one_hot):
    # At the default ridge each one-hot block and the intercept span a
    # direction that only the 1e-6 penalty pins, so two roundings of the same
    # Hessian move the weights there by ~1e-7 relative while every
    # probability agrees; the weights are compared where the ridge is 1.
    for ridge in (1e-6, 1.0):
        w_dense, s_dense = fit_logistic(features, labels, ridge)
        w_blocks, s_blocks = fit_logistic(features, labels, ridge, one_hot)
        np.testing.assert_allclose(s_blocks, s_dense, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(w_blocks, w_dense, rtol=1e-9, atol=0.0)


def test_one_hot_hessian_gives_the_dense_fit():
    real, synth = _one_hot_pair()
    assert _one_hot_ranges(real) == [(0, 5), (6, 8), (8, 14)]
    features = np.concatenate([real.values, synth.values])
    labels = np.concatenate([np.zeros(real.n_rows), np.ones(synth.n_rows)])
    _assert_same_fit(features, labels, _one_hot_ranges(real))


@pytest.mark.parametrize("broken", ["half", "two_ones", "all_zero"])
def test_a_block_that_is_not_one_hot_falls_back_to_dense(broken):
    real, synth = _one_hot_pair()
    features = np.concatenate([real.values, synth.values])
    labels = np.concatenate([np.zeros(real.n_rows), np.ones(synth.n_rows)])
    tier = features[:, 8:14]  # a view into the "tier" block
    if broken == "half":  # the row still sums to 1
        tier[7] = 0.0
        tier[7, [2, 4]] = 0.5
    elif broken == "two_ones":
        tier[7] = 0.0
        tier[7, [3, 5]] = 1.0
    else:
        tier[7] = 0.0
    _assert_same_fit(features, labels, _one_hot_ranges(real))


def test_many_narrow_blocks_use_the_dense_hessian():
    # k binary blocks form k(k+1)/2 block pairs against 2k one-hot columns:
    # three still count (6 <= 6), four or more take the dense product.
    rng = np.random.default_rng(5)
    n, k = 600, 12
    features = np.empty((n, 2 * k + 1))
    features[:, :2 * k:2] = rng.random((n, k)) < 0.5
    features[:, 1:2 * k:2] = 1.0 - features[:, :2 * k:2]
    features[:, -1] = rng.normal(size=n)
    labels = (rng.random(n) < 0.3 + 0.4 * features[:, 0]).astype(np.float64)
    ranges = [(2 * j, 2 * j + 2) for j in range(k)]
    xa = _design_matrix(features)
    assert len(_one_hot_codes(xa, ranges[:3])[0]) == 3
    for blocks in (4, k):
        codes, hot = _one_hot_codes(xa, ranges[:blocks])
        assert codes == [] and hot.size == 0
    w_dense, s_dense = fit_logistic(features, labels)
    w_blocks, s_blocks = fit_logistic(features, labels, one_hot=ranges)
    np.testing.assert_array_equal(w_blocks, w_dense)
    np.testing.assert_array_equal(s_blocks, s_dense)


def test_pmse_ratio_of_an_encoded_matrix_matches_its_values():
    real, synth = _one_hot_pair()
    ratio = pmse_ratio(real, synth)
    assert ratio == pytest.approx(pmse_ratio(real.values, synth.values), rel=1e-12, abs=0.0)
    assert ratio > 1.0  # the shifted table is told apart


def test_one_hot_ranges_are_validated():
    x = np.eye(3)[[0, 1, 2, 0, 1, 2]]
    labels = np.array([0.0, 1.0] * 3)
    with pytest.raises(ValueError, match="overlap"):
        fit_logistic(x, labels, one_hot=[(0, 2), (1, 3)])
    with pytest.raises(ValueError, match="outside"):
        fit_logistic(x, labels, one_hot=[(1, 4)])


# ---------------------------------------------------------------------------
# KS and chi-squared marginals


def test_ks_hand_value():
    assert ks_distance([1, 2, 3, 4], [3, 4, 5, 6]) == 0.5


def test_ks_extremes_and_symmetry():
    assert ks_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_distance([0.0, 1.0], [5.0, 6.0]) == 1.0
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=37), rng.normal(0.5, 1.0, size=53)
    assert ks_distance(a, b) == ks_distance(b, a)
    with pytest.raises(DegenerateDataError):
        ks_distance([], [1.0])


def test_ks_matches_scipy():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = rng.normal(size=rng.integers(20, 200))
        b = rng.normal(rng.random(), 1.0, size=rng.integers(20, 200))
        ref = scipy.stats.ks_2samp(a, b).statistic
        assert ks_distance(a, b) == pytest.approx(ref, abs=1e-12)


def test_gamma_q_matches_scipy():
    for a in (0.5, 1.0, 1.5, 2.0, 3.5, 5.0, 10.0, 25.0):
        for x in np.linspace(0.0, 100.0, 101):
            assert gamma_q(a, float(x)) == pytest.approx(
                scipy.special.gammaincc(a, x), abs=1e-9
            )
    with pytest.raises(ValueError):
        gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_q(1.0, -1.0)


def test_gamma_q_matches_scipy_at_every_half_integer():
    xs = np.concatenate([[1e-12, 1e-6], np.geomspace(1e-3, 1e4, 61)])
    for a in np.arange(0.5, 200.5, 0.5):
        got = [gamma_q(float(a), float(x)) for x in xs]
        np.testing.assert_allclose(got, scipy.special.gammaincc(a, xs), rtol=0.0, atol=1e-12)
    for a in (0.3, 1.25):
        with pytest.raises(ValueError):
            gamma_q(a, 1.0)


def test_chi2_hand_value():
    chi2, dof, dropped = _chi2_stat([5, 5], [10, 0])
    assert (chi2, dof, dropped) == (10.0, 1, 0)
    assert chi2_distance([5, 5], [10, 0]) == pytest.approx(0.99843, abs=1e-4)


def test_chi2_identical_profiles_are_zero_distance():
    assert chi2_distance([30, 70], [3, 7]) == 0.0  # scale-invariant
    assert chi2_distance([10, 10, 10], [10, 10, 10]) == 0.0


def test_chi2_is_directional():
    assert chi2_distance([9, 1], [5, 5]) != chi2_distance([5, 5], [9, 1])


def test_chi2_drops_zero_expected_categories():
    chi2, dof, dropped = _chi2_stat([5, 0, 5], [4, 2, 4])
    assert dropped == 1
    assert dof == 1
    assert chi2 == pytest.approx(0.4, rel=1e-12)


def test_chi2_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        _chi2_stat([0, 0], [1, 1])
    with pytest.raises(SchemaError):
        _chi2_stat([1, 2, 3], [1, 2])
    # one surviving category: distance collapses to the 0/1 indicator
    assert chi2_distance([5, 0], [5, 0]) == 0.0


MIXED = TableSchema((
    ColumnSchema("tier", ColumnKind.CATEGORICAL, vocabulary=("lo", "hi")),
    ColumnSchema("score", ColumnKind.CONTINUOUS, minimum=0.0, maximum=10.0),
))


def test_marginal_distance_identical_tables():
    rows = [("lo", 1.0), ("hi", 2.0), ("lo", 3.0), ("hi", 4.0)]
    table = RawTable(MIXED, rows)
    overall, per_feature, dropped = marginal_distance(table, table)
    assert overall == 0.0
    assert per_feature == [("tier", 0.0), ("score", 0.0)]
    assert dropped == 0


def test_marginal_distance_mixes_both_kinds():
    real = RawTable(MIXED, [("lo", 1.0), ("lo", 2.0), ("hi", 3.0), ("hi", 4.0)])
    synth = RawTable(MIXED, [("lo", 5.0), ("lo", 6.0), ("lo", 7.0), ("lo", 8.0)])
    overall, per_feature, _ = marginal_distance(real, synth)
    dists = dict(per_feature)
    assert dists["score"] == 1.0  # disjoint supports
    assert 0.0 < dists["tier"] < 1.0
    assert overall == pytest.approx((dists["tier"] + dists["score"]) / 2.0)


def test_marginal_distance_rejects_schema_mismatch():
    other = TableSchema((ColumnSchema("z", ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0),))
    with pytest.raises(SchemaError):
        marginal_distance(RawTable(MIXED, []), RawTable(other, []))


# ---------------------------------------------------------------------------
# precision / recall


def test_quantile_radii_nearest_rank():
    radii = _quantile_radii(np.array([4.0, 1.0, 3.0, 2.0]), np.array([0.25, 0.5, 0.75, 1.0]))
    np.testing.assert_array_equal(radii, [1.0, 2.0, 3.0, 4.0])
    # tiny alpha still takes the smallest order statistic, never rank 0
    np.testing.assert_array_equal(_quantile_radii(np.array([5.0, 6.0]), np.array([0.01])), [5.0])


def test_precision_recall_hand_example():
    real = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    synth = np.array([[2.0], [10.0]])
    curves = precision_recall_curves(real, synth, grid_step=0.2)
    np.testing.assert_allclose(curves.alphas, [0.2, 0.4, 0.6, 0.8, 1.0], rtol=1e-12)
    np.testing.assert_array_equal(curves.p_alpha, 0.5)  # the inlier is always in
    np.testing.assert_array_equal(curves.r_beta, 0.6)
    a, b, area = auprc(curves)
    assert a == pytest.approx(0.45)
    assert b == pytest.approx(0.54)
    assert area == pytest.approx(a * b)


def test_identical_datasets_trace_the_diagonal():
    x = np.random.default_rng(7).normal(size=(2000, 4))
    curves = precision_recall_curves(x, x)
    np.testing.assert_allclose(curves.p_alpha, curves.alphas, atol=1e-3)
    np.testing.assert_allclose(curves.r_beta, curves.betas, atol=1e-3)
    assert np.all(np.diff(curves.p_alpha) >= 0.0)
    a, b, area = auprc(curves)
    assert a == pytest.approx(0.5, abs=0.01)
    assert area == pytest.approx(0.25, abs=0.01)


def test_precision_recall_validation():
    with pytest.raises(SchemaError):
        precision_recall_curves(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(DegenerateDataError):
        precision_recall_curves(np.zeros((0, 2)), np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# eigen-decomposition and projections


def test_jacobi_hand_case():
    vals, vecs = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(np.abs(vecs), [[s, s], [s, s]], atol=1e-12)
    # sign convention: the largest-magnitude component is positive
    assert vecs[0, 0] > 0 and vecs[0, 1] > 0


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(8, 8))
    sym = (m + m.T) / 2.0
    vals, vecs = jacobi_eigh(sym)
    ref = np.linalg.eigvalsh(sym)[::-1]
    np.testing.assert_allclose(vals, ref, atol=1e-10)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(8), atol=1e-10)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, sym, atol=1e-10)


def test_jacobi_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        jacobi_eigh([[1.0, 2.0], [0.0, 1.0]])


def test_eigen_contract_on_a_wide_one_hot_covariance():
    # Width 200: blocks of 120, 4 x 15 and 10 one-hot columns, 9 continuous
    # ones and a constant one.  Every block's columns sum to a constant, so
    # the covariance has several exact-zero eigenvalues.
    rng = np.random.default_rng(11)
    n = 600
    blocks = [np.eye(k)[rng.integers(0, k, size=n)] for k in (120, 15, 15, 15, 15, 10)]
    x = np.concatenate(blocks + [rng.normal(size=(n, 9)), np.ones((n, 1))], axis=1)
    assert x.shape[1] == 200
    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / (n - 1)
    vals, vecs = jacobi_eigh(cov)
    top = vals[0]
    assert np.all(np.diff(vals) <= 0.0)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(cov)[::-1], rtol=0.0, atol=1e-9 * top)
    assert np.sum(np.abs(vals) < 1e-9 * top) >= 7
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(200)]
    assert np.all(lead > 0.0)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, cov, rtol=0.0, atol=1e-9 * top)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(200), rtol=0.0, atol=1e-9)


def test_projection_identical_datasets_share_grids():
    x = np.random.default_rng(9).normal(size=(300, 5))
    result = pca_projection_histogram(x, x, bins=16)
    np.testing.assert_array_equal(result.real_grid, result.other_grid)
    assert result.real_grid.sum() == 300
    assert result.real_grid.shape == (16, 16)


def test_projection_finds_dominant_axes():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(500, 3)) * np.array([10.0, 3.0, 0.1])
    result = pca_projection_histogram(x, x, bins=8)
    assert abs(result.components[0, 0]) > 0.99
    assert abs(result.components[1, 1]) > 0.99
    assert result.eigenvalues[0] > result.eigenvalues[1] > result.eigenvalues[2]


def test_projection_clips_outliers_into_edge_bins():
    rng = np.random.default_rng(11)
    real = rng.normal(size=(200, 2))
    other = np.concatenate([rng.normal(size=(50, 2)), [[1e6, 1e6]]])
    result = pca_projection_histogram(real, other, bins=8)
    assert result.other_grid.sum() == 51  # nothing falls off the grid


def test_projection_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        pca_projection_histogram(np.ones((5, 3)), np.ones((5, 3)))
    with pytest.raises(DegenerateDataError):
        pca_projection_histogram(np.ones((1, 3)), np.ones((5, 3)))
    with pytest.raises(SchemaError):
        pca_projection_histogram(np.zeros((5, 2)), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# the assembled report


def test_evaluate_self_comparison():
    rng = np.random.default_rng(12)
    rows = [("lo" if rng.random() < 0.5 else "hi", float(10 * rng.random()))
            for _ in range(300)]
    table = RawTable(MIXED, rows)
    report = evaluate(table, table)
    assert isinstance(report, FidelityReport)
    assert report.marginal_distance == 0.0
    assert report.pmse_ratio < 0.05  # indistinguishable -> propensities at 1/2
    assert report.alpha_precision_integral == pytest.approx(0.5, abs=0.05)
    assert report.auprc == pytest.approx(
        report.alpha_precision_integral * report.beta_recall_integral
    )
    meta = report.metadata
    assert meta["n_real"] == meta["n_synth"] == 300
    assert meta["pmse_d"] == MIXED.encoded_width + 1
    assert meta["support"] == "mean-centered-hypersphere"
    assert meta["chi2_dropped_categories"] == 0


def test_evaluate_json_round_trip_and_metadata_override():
    rows = [("lo", 1.0), ("hi", 9.0)] * 20
    table = RawTable(MIXED, rows)
    report = evaluate(table, table, metadata={"run": "smoke"})
    payload = report.to_json_dict()
    assert payload["metadata"]["run"] == "smoke"
    assert {p["name"] for p in payload["per_feature"]} == {"tier", "score"}
    assert set(payload) == {
        "pmse_ratio", "marginal_distance", "alpha_precision_integral",
        "beta_recall_integral", "auprc", "per_feature", "metadata",
    }


def test_evaluate_rejects_schema_mismatch():
    other = TableSchema((ColumnSchema("z", ColumnKind.CONTINUOUS, minimum=0.0, maximum=1.0),))
    with pytest.raises(SchemaError):
        evaluate(RawTable(MIXED, [("lo", 1.0)]), RawTable(other, [(0.5,)]))
