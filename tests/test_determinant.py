import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hypdet import bounds as bd
from hypdet import determinant as det
from hypdet import maps, orbits
from hypdet.errors import IllConditionedRoot, OrientationNotTrivial, PerturbationTooLarge

LAM = maps.CAT_LAMBDA


def traces_from_coeffs(coeffs):
    """Inverse of coeffs_from_power_sums with sign = -1 (log-derivative)."""
    c = np.asarray(coeffs, dtype=float)
    N = len(c) - 1
    t = np.zeros(N)
    for k in range(1, N + 1):
        acc = math.fsum(t[j - 1] * c[k - j] for j in range(1, k))
        t[k - 1] = -k * c[k] - acc
    return t


def test_dynamical_trace_cat(cat_pts):
    # |det(Id - DT^m)| = |1 - tr + det| is an exact integer on the cat map,
    # so only the rounding of the sum of its reciprocals is left
    for m in range(1, 13):
        assert abs(det.dynamical_trace(cat_pts[m]) - 1.0) <= 2.2e-16


def test_dynamical_trace_constant_weight(cat):
    c = 0.7
    sys_c = cat.with_weight(lambda x: np.full(x.shape[0], c), tag="c")
    for m in (1, 2, 3):
        pts = orbits.periodic_points(sys_c, m)
        assert abs(det.dynamical_trace(pts) - c**m) < 1e-12


def test_trace_series_examples(cat, cat_pts, point_sets):
    ts = det.trace_series(cat, cat_pts, 6)
    assert np.max(np.abs(ts.traces - 1.0)) < 1e-12
    inv_lam = cat.with_weight(
        lambda x: np.full(x.shape[0], 1.0 / LAM), tag="invlam")
    ts2 = det.trace_series(inv_lam, point_sets(inv_lam), 3)
    assert np.allclose(ts2.traces, [LAM**-1, LAM**-2, LAM**-3], rtol=1e-12)
    zero = cat.with_weight(lambda x: np.zeros(x.shape[0]), tag="zero")
    assert np.all(det.trace_series(zero, point_sets(zero), 3).traces == 0.0)


def test_coeff_recursion_examples():
    c = det.coeffs_from_power_sums(np.ones(5), sign=-1.0)
    assert np.allclose(c, [1, -1, 0, 0, 0, 0], atol=1e-15)
    c2 = det.coeffs_from_power_sums([LAM ** -(m + 1) for m in range(5)], sign=-1.0)
    assert abs(c2[1] + 1.0 / LAM) < 1e-14
    assert np.max(np.abs(c2[2:])) < 1e-14
    c3 = det.coeffs_from_power_sums(np.zeros(4), sign=-1.0)
    assert np.allclose(c3, [1, 0, 0, 0, 0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20))
def test_coeff_trace_roundtrip(traces):
    coeffs = det.coeffs_from_power_sums(traces, sign=-1.0)
    back = traces_from_coeffs(coeffs)
    assert np.max(np.abs(back - np.asarray(traces))) < 1e-12


def test_cat_determinant_exactness(cat, cat_pts):
    ts = det.trace_series(cat, cat_pts, 12)
    dp = det.det_coeffs_from_traces(ts, (LAM, 1.0))
    assert abs(dp.coeffs[1] + 1.0) <= 1e-10
    assert np.max(np.abs(dp.coeffs[2:])) <= 1e-10
    zeros = det.det_zeros(dp, 2.5)
    assert len(zeros) == 1
    z = zeros[0]
    assert abs(z["zero"] - 1.0) < 1e-10
    assert z["multiplicity"] == 1
    assert z["backward_error"] < 1e-12


def test_det_zeros_linear():
    dp = det.DeterminantPoly(coeffs=np.array([1.0, -1.0]), validity_radius=math.inf,
                             coarse_radius=math.inf)
    zeros = det.det_zeros(dp, 2.0)
    assert len(zeros) == 1 and abs(zeros[0]["zero"] - 1.0) < 1e-14


def test_det_zeros_synthetic_two_roots():
    # tr_m = 1 + 2^{-m}  <=>  d(z) = (1 - z)(1 - z/2)
    traces = np.array([1.0 + 2.0 ** -(m + 1) for m in range(16)])
    dp = det.DeterminantPoly(coeffs=det.coeffs_from_power_sums(traces, -1.0),
                             validity_radius=math.inf, coarse_radius=math.inf)
    zeros = det.det_zeros(dp, 3.0)
    good = [z for z in zeros if z["backward_error"] <= 1e-6]
    vals = sorted(abs(z["zero"]) for z in good)
    assert len(vals) == 2
    assert abs(vals[0] - 1.0) < 1e-8 and abs(vals[1] - 2.0) < 1e-6


def test_det_zeros_backward_error_on_the_trimmed_polynomial():
    # d(z) = (1 - z)(1 - z/30) with a roundoff tail c_3..c_12 = 1e-15, which
    # det_zeros trims before solving; over all 13 coefficients the tail times
    # 30^12 would swamp the residual at z = 30
    c = np.concatenate([[1.0, -(1.0 + 1.0 / 30.0), 1.0 / 30.0], np.full(10, 1e-15)])
    dp = det.DeterminantPoly(coeffs=c, validity_radius=math.inf, coarse_radius=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedRoot)
        zeros = det.det_zeros(dp, 40.0)
    assert [round(abs(z["zero"]), 10) for z in zeros] == [1.0, 30.0]
    assert all(z["backward_error"] <= 1e-15 for z in zeros)


def test_zero_stability_under_truncation_doubling(cat, cat_pts, pcat, pcat_pts):
    for sys_, pts in ((cat, cat_pts), (pcat, pcat_pts)):
        z1 = det.det_zeros(det.det_coeffs_from_traces(det.trace_series(sys_, pts, 6),
                                                      (2.6, 1.0)), 1.5)
        z2 = det.det_zeros(det.det_coeffs_from_traces(det.trace_series(sys_, pts, 12),
                                                      (2.6, 1.0)), 1.5)
        keep1 = [z for z in z1 if z["backward_error"] <= 1e-6]
        keep2 = [z for z in z2 if z["backward_error"] <= 1e-6]
        assert len(keep1) == len(keep2) == 1
        assert abs(keep1[0]["zero"] - keep2[0]["zero"]) <= 1e-6


def test_zeta_direct_examples(cat, cat_pts, point_sets):
    zd = det.zeta_direct(cat_pts, 2)
    assert abs(zd[1] - 1.0) < 1e-12
    assert abs(zd[2] - 3.0) < 1e-12
    zero = cat.with_weight(lambda x: np.zeros(x.shape[0]), tag="zero")
    zz = det.zeta_direct(point_sets(zero), 4)
    assert np.allclose(zz, [1, 0, 0, 0, 0])


def test_zeta_product_identities(cat, cat_pts, pcat_pts, point_sets):
    for pts, N in ((cat_pts, 8), (pcat_pts, 6)):
        zd = det.zeta_direct(pts, N)
        zp = det.zeta_product(pts, N)
        assert np.max(np.abs(zd - zp)) < 1e-8
    zero = cat.with_weight(lambda x: np.zeros(x.shape[0]), tag="zero")
    zp0 = det.zeta_product(point_sets(zero), 4)
    assert np.allclose(zp0, [1, 0, 0, 0, 0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 7), eps=st.floats(-0.05, 0.05), N=st.integers(1, 6))
def test_zeta_direct_equals_product(seed, eps, N):
    try:
        sys_ = maps.make_map("perturbed_cat", eps, seed)
    except PerturbationTooLarge:
        reject()  # det DT falls below JACOBIAN_DET_MARGIN somewhere
    pts = {m: orbits.periodic_points(sys_, m) for m in range(1, N + 1)}
    zd = det.zeta_direct(pts, N)
    zp = det.zeta_product(pts, N)
    assert np.max(np.abs(zd - zp)) < 1e-8


def test_zeta_product_orientation_guard(cat_pts):
    # flip the derivative sign at every point: det(DT|E^u) < 0
    pts = cat_pts[1]
    flipped = dataclasses.replace(pts, trace=-pts.trace,
                                  fix_det=np.abs(1.0 + pts.trace + pts.jac_det))
    det._check_orientation(pts)
    with pytest.raises(OrientationNotTrivial):
        det._check_orientation(flipped)


@pytest.mark.parametrize("eps,seed", [(0.0, 0), (0.05, 0), (-0.05, 7)])
def test_orientation_sign_matches_splitting(eps, seed):
    # the stored trace of DT^m against sign <DT^m u, u> for the power
    # iteration's unstable direction u at each periodic point
    sys_ = maps.make_map("perturbed_cat", eps, seed)
    for m in range(1, 7):
        pts = orbits.periodic_points(sys_, m)
        u = maps.unstable_direction(sys_, pts.points)
        dtu = (maps.jacobian_cocycle(sys_, pts.points, m) @ u[..., None])[..., 0]
        by_split = np.sign(np.einsum("ij,ij->i", dtu, u))
        by_trace = np.sign(pts.trace)
        assert np.array_equal(by_split, by_trace)


def test_validity_radius(cat, cat_pts):
    vr, cr = det.validity_radius(cat, cat_pts, 1.0, -1.0)
    assert abs(vr - LAM) / LAM < 0.02
    assert abs(cr - 1.0) < 0.02


def test_validity_radius_cat_exact_exponents(cat, cat_pts):
    # the radii from the exact exponents (mu^m, lambda^m) of the cat map
    p, q = 1.0, -1.0
    radii = []
    for pp, qq in ((p, q), (0.0, 0.0)):
        logs = [math.log(math.fsum(cat_pts[m].weights
                                   * max(maps.CAT_MU ** (m * pp), LAM ** (m * qq)) / LAM**m))
                for m in det.VALIDITY_M_RANGE]
        fit = bd.log_linear_fit(list(det.VALIDITY_M_RANGE), logs)
        radii.append(1.0 / fit["estimate"])
    vr, cr = det.validity_radius(cat, cat_pts, p, q)
    assert vr == pytest.approx(radii[0], rel=1e-14, abs=0.0)
    assert cr == pytest.approx(radii[1], rel=1e-14, abs=0.0)


def test_validity_radius_shares_exponents(pcat, pcat_pts):
    from hypdet import bounds

    vr, cr = det.validity_radius(pcat, pcat_pts, 1.0, -1.0)
    qpq = bounds.q_variational(pcat, pcat_pts, range(4, 11), 1.0, -1.0)["estimate"]
    q00 = bounds.q_variational(pcat, pcat_pts, range(4, 11), 0.0, 0.0)["estimate"]
    assert (vr, cr) == (1.0 / qpq, 1.0 / q00)


def test_determinant_report_from_inputs(pcat, pcat_pts):
    ts = det.trace_series(pcat, pcat_pts, 6)
    dp = det.det_coeffs_from_traces(ts, (2.5, 1.0))
    zeros = det.det_zeros(dp, 1.5)
    pts = {m: pcat_pts[m] for m in range(1, 7)}
    rep = det.determinant_report(ts, dp, zeros, 1.5, pts)
    assert rep["order"] == 6 and rep["traces"] == ts.traces.tolist()
    assert [(o["m"], o["points"], o["prime_cycles"]) for o in rep["diagnostics"]["orbits"]] \
        == [(m, len(p), p.cycles) for m, p in pts.items()]
    assert all(o["newton_residual"] <= 0.05 * orbits.NEWTON_TOL
               for o in rep["diagnostics"]["orbits"])
    assert rep["coeffs"] == dp.coeffs.tolist()
    assert (rep["validity_radius"], rep["coarse_radius"], rep["radius"]) == (2.5, 1.0, 1.5)
    assert [complex(z["re"], z["im"]) for z in rep["zeros"]] == [z["zero"] for z in zeros]


def test_validity_radius_weight_floor(cat, point_sets):
    from hypdet import bounds

    zero = cat.with_weight(lambda x: np.zeros(x.shape[0]), tag="zero")
    pts = point_sets(zero)
    rep = bounds.q_variational(zero, pts, range(2, 6), 1.0, -1.0)
    assert rep["weight_floor_n"] == 100
    assert np.isfinite(rep["estimate"])
