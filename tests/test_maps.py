import dataclasses
import math

import numpy as np
import pytest

from hypdet import cli, maps
from hypdet.errors import ConeViolation, DegenerateDirection, PerturbationTooLarge

LAM = maps.CAT_LAMBDA
MU = maps.CAT_MU


def torus_dist(a, b):
    d = a - b
    d = d - np.round(d)
    return np.max(np.abs(d))


def sector_image_margin(M, theta, theta_p):
    """Margin (radians) by which M^tr maps complement(C_+) inside C'_-.

    Uses the two boundary rays of the complement sector plus sampled interior
    directions; for a linear map the image sector is spanned by the boundary
    images, the samples guard against degenerate cases.
    """
    lo = theta.half_plus  # complement of C_+: directions with angdist > half_plus
    angles = theta.axis_plus + np.concatenate(
        [[lo + 1e-12, math.pi - lo - 1e-12], np.linspace(lo + 1e-9, math.pi - lo - 1e-9, 181)]
    )
    imgs = np.stack([np.cos(angles), np.sin(angles)], axis=-1) @ M  # rows: M^tr @ dir
    d = maps._angdist(np.arctan2(imgs[:, 1], imgs[:, 0]), theta_p.axis_minus)
    return float(theta_p.half_minus - np.max(d))


# composite Gauss-Legendre rule on [0, 1]: 16 nodes on each of 64 equal panels.
# One 16-node rule over [0, 1] leaves mean-value residuals up to 6.6e-3 at
# eps = +-0.05, where a segment crosses the edge of a chart bump's support; the
# panels bring them to 1e-14.
_GL_T, _GL_W = np.polynomial.legendre.leggauss(16)
SECANT_T = ((np.arange(64)[:, None] + 0.5 * (_GL_T + 1.0)) / 64).ravel()
SECANT_W = np.tile(0.5 * _GL_W / 64, 64)


def secant_matrix(sys_, x, y):
    """Mean-value matrix L_xy = int_0^1 DT(y + t(x-y)) dt, so L_xy (x-y) = T(x)-T(y),
    for two points x, y of shape (2,)."""
    pts = y[None, :] + SECANT_T[:, None] * (x - y)[None, :]
    return np.einsum("k,kij->ij", SECANT_W, sys_.jacobian(pts))


def check_cone_hyperbolic(sys_, theta, theta_prime, n_samples, seed):
    """Worst cone margins of DT^tr and of secant matrices at points of [-2, 2]^2.

    The chart models are built cone-hyperbolic for |eps| <= PERTURBATION_BOUND,
    which builtin_chart_model enforces, so no command needs to run this check.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(n_samples, 2))
    margins = [sector_image_margin(J, theta, theta_prime) for J in sys_.jacobian(pts)]
    pair_margins, residuals = [], []
    for xp, yp in rng.uniform(-2.0, 2.0, size=(n_samples, 2, 2)):
        L = secant_matrix(sys_, xp, yp)
        # consistency of the mean-value property
        Tx, Ty = sys_.forward(np.stack([xp, yp]))
        residuals.append(np.linalg.norm(L @ (xp - yp) - (Tx - Ty)))
        pair_margins.append(sector_image_margin(L, theta, theta_prime))
    return {"derivative_margin": min(margins), "secant_margin": min(pair_margins),
            "max_secant_residual": max(residuals)}


def lambda_pqm(sys_, x, p, q, m):
    """max{ lambda_x(T^m)^p, nu_x(T^m)^q } at the (n, 2) points x."""
    lam, nu, _, _ = maps.hyperbolicity_exponents(sys_, x, m)
    return np.maximum(lam**p, nu**q)


def unstable_jacobian(sys_, x, m):
    """|det(DT^m|_{E^u})|(x), the nu of hyperbolicity_exponents."""
    return maps.hyperbolicity_exponents(sys_, x, m)[1]


def test_cat_basics(cat):
    assert np.allclose(cat.forward(np.zeros((1, 2))), 0.0)
    assert np.allclose(cat.jacobian(np.array([[0.3, 0.7]])), maps.CAT_A)
    lead = np.max(np.abs(np.linalg.eigvals(cat.jacobian(np.zeros((1, 2))))))
    assert abs(lead - 2.6180339887) < 1e-9


@pytest.mark.parametrize("build", ["cat", "pcat", "chart"])
def test_forward_inverse_identity(build, rng):
    if build == "cat":
        sys_ = maps.builtin_cat_map()
        pts = rng.uniform(0, 1, (1000, 2))
        wrap = True
    elif build == "pcat":
        sys_ = maps.builtin_perturbed_cat(0.02, seed=3)
        pts = rng.uniform(0, 1, (1000, 2))
        wrap = True
    else:
        sys_ = maps.builtin_chart_model(0.02)[0]
        pts = rng.uniform(-0.9, 0.9, (1000, 2))
        wrap = False
    back = sys_.inverse(sys_.forward(pts))
    if wrap:
        assert torus_dist(back, pts) < 1e-10
    else:
        assert np.max(np.abs(back - pts)) < 1e-10


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.05])
def test_jacobian_nonsingular(eps, rng):
    sys_ = maps.builtin_perturbed_cat(eps)
    pts = rng.uniform(0, 1, (500, 2))
    dets = np.abs(np.linalg.det(sys_.jacobian(pts)))
    assert np.all(dets > 1e-12)


def test_chart_weight_support_and_continuity(rng):
    sys_ = maps.builtin_chart_model(0.0)[0]
    outside = rng.uniform(0.3, 1.0, (200, 2)) + 0.25  # radius > 0.25
    assert np.all(np.asarray(sys_.weight(outside)) == 0.0)
    # sampled modulus of continuity
    x = rng.uniform(-0.3, 0.3, (500, 2))
    h = 1e-5 * rng.standard_normal((500, 2))
    dw = np.abs(np.asarray(sys_.weight(x + h)) - np.asarray(sys_.weight(x)))
    assert np.max(dw) < 1e-3


def test_perturbed_cat_examples():
    pc0 = maps.builtin_perturbed_cat(0.0)
    cat = maps.builtin_cat_map()
    x = np.array([[0.123, 0.456]])
    for _ in range(5):
        assert torus_dist(pc0.forward(x), cat.forward(x)) < 1e-15
        x = cat.forward(x)
    pc = maps.builtin_perturbed_cat(0.01)
    assert np.allclose(pc.forward(np.zeros((1, 2))), 0.0)
    expected = maps.CAT_A + 0.01 * 2 * math.pi * np.array([[0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(pc.jacobian(np.zeros((1, 2))), expected, atol=1e-14)
    with pytest.raises(PerturbationTooLarge):
        maps.builtin_perturbed_cat(0.06)
    with pytest.raises(PerturbationTooLarge):
        maps.builtin_perturbed_cat(math.nan)


def _corner_points(a, b):
    """Points where a.x and b.x lie in {0, 1/2} mod 1: there the cosines of
    2 pi a.x and 2 pi b.x are +-1, every pair of signs for independent a, b."""
    t = np.array([(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)])
    M = np.array([a, b], dtype=float)
    if a[0] * b[1] - a[1] * b[0]:
        return np.linalg.solve(M, t.T).T
    return t[:, :1] * M[0] / (M[0] @ M[0])


def _jacobian_det(a, b, eps, x):
    """det DT of x -> A x + eps (sin 2 pi a.x, sin 2 pi b.x), by 2x2 LU."""
    s = 2 * math.pi * eps
    rows = np.stack([np.cos(2 * math.pi * x @ np.array(a, float))[:, None] * a,
                     np.cos(2 * math.pi * x @ np.array(b, float))[:, None] * b], axis=1)
    return np.linalg.det(maps.CAT_A + s * rows)


@pytest.mark.parametrize("eps", [0.05, -0.05, 0.03])
@pytest.mark.parametrize("ab", [*(maps._perturbation_vectors(s) for s in range(8)),
                                ((1, 1), (1, 1)), ((0, 1), (0, -1))])
def test_min_jacobian_det_on_the_four_corners(ab, eps, rng):
    # det DT is bilinear in the two cosines, so its least value over the
    # torus is the least over the corners; a = +-b has c2 = c1
    a, b = (np.array(v) for v in ab)
    low = maps.min_jacobian_det(maps.CAT_A, eps, a, b)
    assert abs(np.min(_jacobian_det(a, b, eps, _corner_points(a, b))) - low) <= 1e-14
    assert np.min(_jacobian_det(a, b, eps, rng.uniform(0, 1, (20000, 2)))) >= low - 1e-14


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("eps", [0.05, -0.05, 0.04, 0.035])
def test_admitted_perturbed_cat_keeps_det_above_margin(seed, eps):
    # a map that passes the check has det DT >= JACOBIAN_DET_MARGIN at its
    # four corners, where det DT is least; every other pair is refused
    a, b = maps._perturbation_vectors(seed)
    low = np.min(_jacobian_det(a, b, eps, _corner_points(a, b)))
    if low < maps.JACOBIAN_DET_MARGIN:
        with pytest.raises(PerturbationTooLarge, match="det DT"):
            maps.builtin_perturbed_cat(eps, seed)
        return
    sys_ = maps.builtin_perturbed_cat(eps, seed)
    assert np.min(np.linalg.det(sys_.jacobian(_corner_points(a, b)))) >= maps.JACOBIAN_DET_MARGIN


def test_chart_model_examples():
    sys_, theta, theta_p = maps.builtin_chart_model(0.0)
    far = np.array([[5.0, 5.0]])  # outside the bumps: exactly linear
    assert np.allclose(sys_.jacobian(far), np.diag([0.5, 2.0]))
    L = secant_matrix(sys_, np.array([3.0, 4.0]), np.array([5.0, -2.0]))
    assert np.allclose(L, np.diag([0.5, 2.0]), atol=1e-12)
    with pytest.raises(PerturbationTooLarge):
        maps.builtin_chart_model(0.06)
    with pytest.raises(PerturbationTooLarge):
        maps.builtin_chart_model(math.nan)
    with pytest.raises(ConeViolation):
        maps.Polarization(0.0, 0.3, 0.0, 0.3)  # cone_plus = cone_minus


def test_polarization_cutoffs(chart):
    _, theta, _ = chart
    ang = np.linspace(0, 2 * math.pi, 721)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    total = theta.phi_plus(dirs) + theta.phi_minus(dirs)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    in_plus = theta.in_cone_plus(dirs)
    in_minus = theta.in_cone_minus(dirs)
    assert np.all(theta.phi_plus(dirs[in_plus]) == 1.0)
    assert np.all(theta.phi_plus(dirs[in_minus]) == 0.0)


def test_jacobian_cocycle(cat, rng):
    x = rng.uniform(0, 1, (1, 2))
    assert np.allclose(maps.jacobian_cocycle(cat, x, 3), [[13, 8], [8, 5]])
    assert np.allclose(maps.jacobian_cocycle(cat, x, 0), np.eye(2))


def test_cocycle_against_finite_differences():
    # oracle: central finite differences of the composed map T^2
    pc = maps.builtin_perturbed_cat(0.01)
    x = np.zeros((1, 2))
    J = maps.jacobian_cocycle(pc, x, 2)
    h = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros((1, 2))
        e[0, j] = h
        fp = pc.forward(pc.forward(x + e))
        fm = pc.forward(pc.forward(x - e))
        d = fp - fm
        d -= np.round(d)
        fd[:, j] = d[0] / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-6


def test_cocycle_identity(rng):
    pc = maps.builtin_perturbed_cat(0.02)
    for _ in range(50):
        x = rng.uniform(0, 1, (1, 2))
        m, k = rng.integers(1, 7), rng.integers(1, 7)
        lhs = maps.jacobian_cocycle(pc, x, m + k)
        y = x.copy()
        for _ in range(m):
            y = pc.forward(y)
        rhs = maps.jacobian_cocycle(pc, y, k) @ maps.jacobian_cocycle(pc, x, m)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_splitting_cat(cat, rng):
    evec_u = np.array([0.85065080835204, 0.5257311121191336])
    evec_s = np.array([0.5257311121191336, -0.85065080835204])
    pts = rng.uniform(0, 1, (20, 2))
    u = maps.unstable_direction(cat, pts)
    s = maps.stable_direction(cat, pts)
    assert np.max(np.abs(np.abs(u @ evec_u) - 1.0)) < 1e-8
    assert np.max(np.abs(np.abs(s @ evec_s) - 1.0)) < 1e-8


def test_splitting_invariance_residual(pcat, rng):
    xs = rng.uniform(0, 1, (50, 2))
    u = maps.unstable_direction(pcat, xs)
    Ju = (pcat.jacobian(xs) @ u[..., None])[..., 0]
    Tu = maps.unstable_direction(pcat, pcat.forward(xs))
    mu = np.linalg.norm(Ju, axis=1)
    sign = np.sign(np.einsum("ij,ij->i", Ju, Tu))
    resid = np.linalg.norm(Ju - mu[:, None] * sign[:, None] * Tu, axis=1)
    assert resid.max() < 1e-4


def test_splitting_degenerate_direction(chart):
    sys_, _, _ = chart
    # (1,0) is exactly the contracting eigendirection of the linear chart map
    with pytest.raises(DegenerateDirection):
        maps.unstable_direction(sys_, np.zeros((1, 2)))


def test_hyperbolicity_exponents(cat):
    x = np.array([[0.1, 0.2]])
    (lam,), (nu,), _, _ = maps.hyperbolicity_exponents(cat, x, 1)
    assert abs(lam - 0.3819660113) < 1e-9
    assert abs(nu - 2.6180339887) < 1e-9
    (lam3,), (nu3,), _, _ = maps.hyperbolicity_exponents(cat, x, 3)
    assert abs(lam3 - MU**3) < 1e-9
    assert abs(nu3 - LAM**3) < 1e-9


@pytest.mark.parametrize("eps,seed", [(0.0, 0), (0.03, 1)])
def test_exponent_walk_reads_each_jacobian_once(eps, seed, rng):
    # the walk's g^(m) and det DT^m are the per-step products, bit for bit,
    # and DT is evaluated once per orbit point plus the two direction fields
    weight = cli.build_weight({"id": "expression",
                               "terms": {"one": 1.0, "cos1": 0.5, "sin2": 0.25}})
    sys_ = maps.make_map("cat", eps, seed).with_weight(*weight, tag="expression")
    calls = []

    def jacobian(x):
        calls.append(len(x))
        return sys_.jacobian(x)

    x, m = rng.uniform(0, 1, (16, 2)), 5
    lam, nu, weights, jac_det = maps.hyperbolicity_exponents(
        dataclasses.replace(sys_, jacobian=jacobian), x, m)
    assert len(calls) == m + 2 * (maps.SPLIT_REF_ITERATIONS + 1)
    assert np.array_equal(weights, maps.weight_product(sys_, x, m))
    dets, y = np.ones(len(x)), x
    for _ in range(m):
        J = sys_.jacobian(y)
        dets *= J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        y = sys_.forward(y)
    assert np.array_equal(jac_det, dets)
    assert np.allclose(jac_det, np.linalg.det(maps.jacobian_cocycle(sys_, x, m)),
                       rtol=1e-9, atol=0.0)


def test_exponents_x_independent_on_linear(cat, rng):
    pts = rng.uniform(0, 1, (100, 2))
    lam, nu, _, _ = maps.hyperbolicity_exponents(cat, pts, 2)
    assert lam.max() - lam.min() <= 1e-10
    assert nu.max() - nu.min() <= 1e-10


def test_exponent_multiplicativity_linear(cat):
    x = np.array([[0.3, 0.9]])
    (lam2,), *_ = maps.hyperbolicity_exponents(cat, x, 2)
    (lam3,), *_ = maps.hyperbolicity_exponents(cat, x, 3)
    (lam5,), *_ = maps.hyperbolicity_exponents(cat, x, 5)
    assert lam5 <= lam2 * lam3 + 1e-8


def test_exponent_submultiplicativity(pcat, rng):
    p, q = 1.0, -1.0
    for _ in range(10):
        x = rng.uniform(0, 1, (1, 2))
        m, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        y = x.copy()
        for _ in range(m):
            y = pcat.forward(y)
        whole = lambda_pqm(pcat, x, p, q, m + k)
        parts = lambda_pqm(pcat, x, p, q, m) * lambda_pqm(pcat, y, p, q, k)
        assert whole[0] <= parts[0] + 1e-9


def test_lambda_pqm(cat):
    x = np.array([[0.4, 0.9]])
    assert abs(lambda_pqm(cat, x, 1, -1, 3)[0] - LAM**-3) < 1e-9
    assert abs(lambda_pqm(cat, x, 2, -1, 1)[0] - 0.3819660113) < 1e-9
    assert abs(lambda_pqm(cat, x, 0, 0, 4)[0] - 1.0) < 1e-12


def test_unstable_jacobian(cat, pcat, rng):
    x = np.array([[0.4, 0.9]])
    assert abs(unstable_jacobian(cat, x, 1)[0] - 2.6180339887) < 1e-9
    assert abs(unstable_jacobian(cat, x, 4)[0] - 46.97871376) < 1e-7
    # cocycle identity on the perturbed map
    for _ in range(5):
        x = rng.uniform(0, 1, (1, 2))
        m, k = 3, 2
        y = x.copy()
        for _ in range(m):
            y = pcat.forward(y)
        lhs = unstable_jacobian(pcat, x, m + k)[0]
        rhs = (unstable_jacobian(pcat, x, m) * unstable_jacobian(pcat, y, k))[0]
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_weight_floor():
    zero = lambda x: np.zeros(x.shape[0])  # noqa: E731
    g4 = maps.weight_floor(zero, 4)
    x = np.array([[0.2, 0.3]])
    assert np.allclose(g4(x), 0.25)
    one = lambda x: np.ones(x.shape[0])  # noqa: E731
    for n in (10, 100, 1000):
        gn = maps.weight_floor(one, n)
        assert np.all(gn(x) - 1.0 <= 1.0 / (2 * n**2) + 1e-15)
        assert np.all(gn(x) >= 1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (100, 2))
    g = lambda x: np.cos(2 * np.pi * x[:, 0])  # noqa: E731
    g4, g5 = maps.weight_floor(g, 4), maps.weight_floor(g, 5)
    assert np.all(g4(pts) >= g5(pts))
    assert np.all(g5(pts) >= np.abs(g(pts)))


def test_cone_check_linear_margin(chart):
    sys_, theta, theta_p = chart
    report = check_cone_hyperbolic(sys_, theta, theta_p, n_samples=20, seed=0)
    # closed-form margin: the boundary ray of complement(C_+) at 35 deg under
    # diag(1/2, 2), measured from the xi2 axis
    th = math.radians(35.0)
    img = np.array([math.cos(th) / 2.0, 2.0 * math.sin(th)])
    expected = th - abs(math.atan2(img[0], img[1]))
    assert abs(report["derivative_margin"] - expected) < 1e-3
    assert report["max_secant_residual"] < 1e-10


def _check_perturbed_cones(eps):
    sys_, theta, theta_p = maps.builtin_chart_model(eps)
    report = check_cone_hyperbolic(sys_, theta, theta_p, n_samples=40, seed=1)
    assert report["derivative_margin"] > 0
    assert report["secant_margin"] > 0
    assert report["max_secant_residual"] < 1e-10
    lin = check_cone_hyperbolic(maps.builtin_chart_model(0.0)[0], theta,
                                theta_p, n_samples=40, seed=1)
    assert report["derivative_margin"] <= lin["derivative_margin"] + 1e-9


def test_cone_check_perturbed():
    _check_perturbed_cones(0.01)


@pytest.mark.parametrize("eps", [-maps.PERTURBATION_BOUND, maps.PERTURBATION_BOUND])
def test_cone_check_at_perturbation_bound(eps):
    # the largest |eps| the chart model accepts still keeps both cone margins
    # positive, so the bound that builtin_chart_model enforces is safe
    _check_perturbed_cones(eps)


def test_splitting_transversality_floor(cat, pcat, rng):
    pts = rng.uniform(0, 1, (60, 2))
    for sys_ in (cat, pcat):
        u = maps.unstable_direction(sys_, pts)
        s = maps.stable_direction(sys_, pts)
        angle = np.arccos(np.clip(np.abs(np.einsum("ij,ij->i", u, s)), 0, 1))
        assert np.min(angle) > 0.5  # radians, far above any reasonable floor


@pytest.mark.parametrize("build", ["cat", "pcat", "chart", "chart_iterate", "reweighted",
                                   "splitting"])
@pytest.mark.parametrize("n", [1, 7])
def test_map_callables_take_and_return_batches(build, n, cat, rng):
    x = rng.uniform(0.0, 1.0, (n, 2))
    if build == "splitting":
        for direction in (maps.stable_direction, maps.unstable_direction):
            assert direction(cat, x).shape == (n, 2)
        return
    sys_ = {
        "cat": lambda: cat,
        "pcat": lambda: maps.builtin_perturbed_cat(0.035, seed=3),
        "chart": lambda: maps.builtin_chart_model(0.05)[0],
        "chart_iterate": lambda: maps.iterate_map(maps.builtin_chart_model(0.05)[0], 3),
        "reweighted": lambda: cat.with_weight(lambda y: np.cos(2 * np.pi * y[:, 0])),
    }[build]()
    assert sys_.forward(x).shape == (n, 2)
    assert sys_.inverse(x).shape == (n, 2)
    assert sys_.jacobian(x).shape == (n, 2, 2)
    assert np.asarray(sys_.weight(x)).shape == (n,)
    if sys_.perturbation is not None:
        # T x = A x + eps (sin 2 pi a.x, sin 2 pi b.x) mod 1, as collocation reads it
        eps, a, b = sys_.perturbation
        s = eps * np.sin(2 * np.pi * (x @ np.array([a, b], dtype=float).T))
        d = sys_.forward(x) - (x @ sys_.linear_part.T + s)
        assert np.max(np.abs(d - np.round(d))) < 1e-12


def _clipped_plateau_step(t, lo, hi):
    """maps._plateau_step in its former form, with t clipped to [lo, hi]."""
    s = (np.clip(t, lo, hi) - lo) / (hi - lo)
    up = maps._mollifier_f(1.0 - s)
    down = maps._mollifier_f(s)
    with np.errstate(invalid="ignore"):
        val = up / (up + down)
    val = np.where(s <= 0.0, 1.0, val)
    return np.where(s >= 1.0, 0.0, val)


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (math.radians(35), math.radians(55)),
                                    (-3.0, 1e-3)])
def test_plateau_step_needs_no_clip(lo, hi):
    # its final np.where overwrite every point outside [lo, hi], so clipping t
    # first changes no bit, also at the ends, their neighbouring floats and
    # the extremes
    width = hi - lo
    ends = [np.nextafter(e, d) for e in (lo, hi) for d in (-np.inf, np.inf)]
    t = np.concatenate([np.random.default_rng(11).uniform(lo - width, hi + width, 1_000_000),
                        [lo, hi], ends, [1e308, -1e308, np.inf, -np.inf]])
    got = maps._plateau_step(t, lo, hi)
    assert np.array_equal(got.view(np.uint64), _clipped_plateau_step(t, lo, hi).view(np.uint64))
