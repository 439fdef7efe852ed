import math

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.ndimage import map_coordinates, spline_filter

from hypdet import maps
from hypdet.aniso import blocks as ab
from hypdet.aniso import partition as ap
from hypdet.errors import GridTooCoarse


@pytest.fixture(scope="module")
def theta():
    return maps.builtin_chart_model(0.0)[1]


@pytest.fixture(scope="module")
def grid():
    return ap.BoxGrid(8.0, 1024)


@pytest.fixture(scope="module")
def theta_horizontal():
    # cone_plus about the xi_2 axis: horizontal lines are admissible leaves
    return maps.Polarization(math.pi / 2, math.radians(35), 0.0, math.radians(35))


def grid_points(grid):
    """The grid points (n_pix^2, 2) in row-major order: point (i, j) is
    (coords_1d[i], coords_1d[j])."""
    c = grid.coords_1d()
    X1, X2 = np.meshgrid(c, c, indexing="ij")
    return np.stack([X1.ravel(), X2.ravel()], axis=-1)


def young_check(grid, a, u, theta, **line_kwargs):
    """ap.young_check on the lines norm_lines(grid, theta, **line_kwargs)."""
    lines = ap.norm_lines(grid, theta, **line_kwargs)
    return ap.young_check(grid, a, u, lines, grid.spline_symbol())


def fft_coefficients(u):
    """Periodic spline coefficients of the square grid values u by the FFT
    route of young_check."""
    return ap.spline_coefficients(sfft.rfft2(u), ap.BoxGrid(1.0, u.shape[0]).spline_symbol())


# The route young_check took before its spline coefficients came from the
# FFTs: the convolution formed on the grid, ndimage's spline prefilter, the
# line points rebuilt for each direction and the trial inputs formed point
# by point.


def convolve(grid, a, u):
    """Continuous convolution a * u of real grid values, realized on the
    periodic grid with real FFTs (a complex a or u raises TypeError).

    One factor is ifftshifted so that index arithmetic matches coordinates
    that start at -B rather than 0.
    """
    spec = sfft.rfft2(a) * sfft.rfft2(sfft.ifftshift(u))
    return sfft.irfft2(spec, s=a.shape) * grid.h**2


def ndimage_coefficients(u):
    """Periodic spline coefficients of real grid values u by ndimage's
    prefilter."""
    return spline_filter(u, ap.SPLINE_ORDER, output=np.float64, mode="grid-wrap")


def interp(grid, coeffs, pts):
    """The periodic spline with coefficients coeffs at the points pts (k, 2)."""
    coords = ((pts + grid.box_half) / grid.h).T
    return map_coordinates(coeffs, coords, order=ap.SPLINE_ORDER, mode="grid-wrap",
                           prefilter=False)


def mixed_norm_by_direction(grid, u, theta, n_dirs, n_offsets, line_samples,
                            offset_extent=None):
    """mixed_norm_L1F of grid values u: ndimage coefficients, and the line
    points of each direction built as they are interpolated."""
    ext = 0.75 * grid.box_half if offset_extent is None else offset_extent
    offsets = np.linspace(-ext, ext, n_offsets)
    half_len = 0.75 * grid.box_half
    t = np.linspace(-half_len, half_len, line_samples)
    dt = t[1] - t[0]
    coeffs = ndimage_coefficients(u)
    best = 0.0
    for v in ap.admissible_directions(theta, n_dirs):
        nrm = np.array([-v[1], v[0]])
        pts = (offsets[:, None, None] * nrm[None, None, :]
               + t[None, :, None] * v[None, None, :]).reshape(-1, 2)
        vals = np.abs(interp(grid, coeffs, pts)).reshape(n_offsets, line_samples)
        integ = dt * (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))
        best = max(best, float(integ.max()))
    return best


def young_check_ndimage(grid, a, u, theta, **line_kwargs):
    """(lhs, rhs, pass) of young_check by the route above."""
    lhs = mixed_norm_by_direction(grid, convolve(grid, a, u), theta, **line_kwargs)
    rhs = float(np.sum(np.abs(a)) * grid.h**2) * mixed_norm_by_direction(grid, u, theta,
                                                                         **line_kwargs)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + ap.YOUNG_REL_SLACK) + ap.YOUNG_QUAD_SLACK * rhs)


def young_pair_pointwise(grid, draw):
    """The pair (a, u) of one young_trials draw, formed point by point."""
    ca, cu, wa, wu, k1 = draw
    pts = grid_points(grid)
    A = np.exp(-((pts[:, 0] - ca[0]) ** 2 + (pts[:, 1] - ca[1]) ** 2) / wa**2)
    U = (np.exp(-((pts[:, 0] - cu[0]) ** 2 + (pts[:, 1] - cu[1]) ** 2) / wu**2)
         * np.cos(k1[0] * pts[:, 0] + k1[1] * pts[:, 1]))
    n = grid.n_pix
    return A.reshape(n, n), U.reshape(n, n)


def recorded_young_checks(monkeypatch):
    """Make young_check record (grid, a, u, lines, result) per call; the list
    of records."""
    checked = []
    real_check = ap.young_check

    def recording_check(grid, a, u, lines, symbol):
        res = real_check(grid, a, u, lines, symbol)
        checked.append((grid, a, u, lines, res))
        return res

    monkeypatch.setattr(ap, "young_check", recording_check)
    return checked


def test_mollifier_values():
    assert ap.mollifier_chi(0.5) == 1.0
    assert abs(ap.mollifier_chi(1.5) - 0.5) < 1e-15
    assert ap.mollifier_chi(2.3) == 0.0
    s = np.linspace(-1, 4, 301)
    v = ap.mollifier_chi(s)
    assert np.all(np.diff(v) <= 1e-15)  # nonincreasing
    assert np.all((v >= 0) & (v <= 1))
    # chi is the plateau step on [1, 2], bit for bit, at the ends and their
    # neighbouring floats too
    edges = np.concatenate([np.nextafter(e, [-np.inf, np.inf]) for e in (1.0, 2.0)])
    s = np.concatenate([np.linspace(0.5, 2.5, 200001), edges, [1.0, 2.0]])
    assert np.array_equal(ap.mollifier_chi(s), maps._plateau_step(s, 1.0, 2.0))


def test_partition_at_origin(theta):
    zero = np.zeros((1, 2))
    assert ap.dyadic_partition_eval(theta, 0, "+", zero)[0] == 0.5
    assert ap.dyadic_partition_eval(theta, 0, "-", zero)[0] == 0.5
    for n in (1, 2):
        for s in "+-":
            assert ap.dyadic_partition_eval(theta, n, s, zero)[0] == 0.0


def _partition_eval_full(theta, n, sigma, xi):
    """psi_{Theta,n,sigma}: the band formula evaluated on every point."""
    norm = np.sqrt(np.sum(xi**2, axis=-1))
    if n == 0:
        return ap.chi_n(norm, 0) / 2.0
    rad = ap.chi_n(norm, n) - ap.chi_n(norm, n - 1)
    unit = xi / np.maximum(norm, 1e-300)[..., None]
    phi = theta.phi_plus(unit) if sigma == "+" else theta.phi_minus(unit)
    return rad * np.where(norm > 0, phi, 0.0)


def test_partition_eval_annulus_is_exact(theta, rng):
    # a lattice through xi = 0, the annulus edges 2^k on both axes and their
    # neighbouring floats, and random points, for every band up to n = 8
    t = np.arange(-520.0, 521.0, 2.0)
    fine = np.arange(-4.0, 4.0 + 1e-9, 0.125)
    edges = [np.nextafter(2.0**k, d) for k in range(-1, 11) for d in (0.0, np.inf)]
    edges += [2.0**k for k in range(-1, 11)]
    axis = np.array([[s * e, 0.0] for e in edges for s in (1, -1)])
    XI = np.vstack([
        np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2),
        np.stack(np.meshgrid(fine, fine, indexing="ij"), axis=-1).reshape(-1, 2),
        axis, axis[:, ::-1], rng.uniform(-600, 600, size=(20000, 2)),
    ])
    for n in range(9):
        for s in "+-":
            got = ap.dyadic_partition_eval(theta, n, s, XI)
            want = _partition_eval_full(theta, n, s, XI)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, s)


def test_blocked_evaluations_are_one_block_bits(theta, rng, monkeypatch):
    # inputs of several EVAL_BLOCK blocks, through xi = 0, against the same
    # calls with all of them in one block
    XI = rng.uniform(-600, 600, size=(3 * ap.EVAL_BLOCK + 123, 2))
    XI[:7] = 0.0
    assert len(ap.point_blocks(XI.shape[0])) == 4

    def evals():
        out = [ap.dyadic_partition_eval(theta, n, s, XI) for n in (0, 1, 5, 8) for s in "+-"]
        out += [ap.psi_tilde_eval(theta, ell, t, XI) for ell in (0, 1, 5, 8) for t in "+-"]
        return out + [ap.dyadic_partition_sum(theta, XI, 10)]

    blocked = evals()
    monkeypatch.setattr(ap, "EVAL_BLOCK", XI.shape[0])
    assert len(ap.point_blocks(XI.shape[0])) == 1
    for got, want in zip(blocked, evals()):
        assert got.shape == want.shape == XI.shape[:1]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lattice_points_and_norms_are_those_of_the_stacked_lattice():
    axis = ap.BoxGrid(8.0, 96).xi_1d()
    XI = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    k = np.arange(XI.shape[0])
    assert np.array_equal(ap.lattice_points(axis, k), XI)
    norm = np.sqrt(np.sum(XI**2, axis=-1))
    assert np.array_equal(ap.lattice_norms(axis).view(np.uint64), norm.view(np.uint64))


def test_interp_prefiltered_once_is_exact(rng):
    # the FFT coefficients, interpolated without a prefilter, against
    # map_coordinates filtering the values itself; ndimage's prefilter is
    # not the FFT route, so the two agree to roundoff, not bit for bit
    grid = ap.BoxGrid(6.0, 96)
    u = rng.standard_normal((96, 96))
    # points outside the box exercise the periodic wrap
    pts = rng.uniform(-8.0, 8.0, size=(4000, 2))
    coords = ((pts + grid.box_half) / grid.h).T
    want = map_coordinates(u, coords, order=3, mode="grid-wrap", prefilter=True)
    got = interp(grid, fft_coefficients(u), pts)
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(u))


@pytest.mark.parametrize("n", [512, 63])
def test_fft_spline_coefficients_are_ndimage_and_exact_at_the_nodes(n, rng):
    u = rng.standard_normal((n, n))
    c = fft_coefficients(u)
    ref = ndimage_coefficients(u)
    assert c.dtype == np.float64 and c.shape == u.shape
    assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the cubic B-spline is 4/6 at its node and 1/6 at the two next ones
    along = lambda x, ax: (np.roll(x, 1, ax) + 4.0 * x + np.roll(x, -1, ax)) / 6.0  # noqa: E731
    assert np.max(np.abs(along(along(c, 0), 1) - u)) <= 1e-14 * np.max(np.abs(u))


def test_spline_symbol_is_the_spectrum_of_the_b_spline_at_the_nodes():
    # the DFT of the node values of the periodic cubic B-spline along one
    # axis: 4/6 at its node, 1/6 at the two next ones
    for n in (8, 9, 512):
        b = np.zeros(n)
        b[[0, 1, -1]] = [4.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]
        want = sfft.fft(b)
        got = ap.BoxGrid(1.0, n).spline_symbol()
        assert got.shape == (n,) and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.min(got) >= 1.0 / 3.0 - 1e-15


def test_partition_sums_to_one(theta, rng):
    assert ap.partition_sum_error(theta, 9) <= 1e-12


def test_psi_tilde_covers_psi_support(theta, rng):
    XI = rng.uniform(-300, 300, size=(20000, 2))
    for n in (0, 1, 4, 6):
        for s in "+-":
            psi = ap.dyadic_partition_eval(theta, n, s, XI)
            tilde = ap.psi_tilde_eval(theta, n, s, XI)
            on_supp = psi > 1e-12
            assert np.all(np.abs(tilde[on_supp] - 1.0) < 1e-12)


def test_grid_too_coarse():
    # band 7 needs |xi| up to 256; the 1024 pixels of CHART_GRID on [-8, 8)
    # resolve only 64 pi
    sys_, theta, theta_p = maps.builtin_chart_model(0.0)
    with pytest.raises(GridTooCoarse):
        ab.compressed_matrices(sys_, maps.chart_weight, theta, theta_p, 7, 5, -6)


def _psi_hat_lattice(theta, n, sigma, v_pts, dxi):
    r = 2.0 ** (n + 1) + 3 * dxi
    half = int(np.ceil(r / dxi))
    j = np.arange(-half, half + 1) * dxi
    XI = np.stack(np.meshgrid(j, j, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = ap.dyadic_partition_eval(theta, n, sigma, XI)
    keep = vals > 0
    XI, vals = XI[keep], vals[keep]
    return (np.exp(1j * (v_pts @ XI.T)) @ vals) * dxi**2 / (2 * math.pi) ** 2


@pytest.mark.parametrize("n", [3, 5])
def test_scaling_law(theta, n, rng):
    v = rng.uniform(-1, 1, size=(40, 2)) * 2.0 ** (-n + 2)
    direct = _psi_hat_lattice(theta, n, "+", v, 0.05 * 2 ** (n - 3))
    scaled = 2.0 ** (2 * (n - 1)) * _psi_hat_lattice(theta, 1, "+",
                                                     v * 2.0 ** (n - 1), 0.05 / 4)
    mask = np.abs(direct) >= 1e-3 * np.abs(direct).max()
    rel = np.abs(direct[mask] - scaled[mask]).max() / np.abs(direct[mask]).max()
    assert rel <= 1e-6


def test_mixed_norm_gaussian(grid, theta_horizontal):
    pts = grid_points(grid)
    u = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2)).reshape(grid.n_pix, grid.n_pix)
    lines = ap.norm_lines(grid, theta_horizontal, 17, 129, grid.n_pix)
    val = ap.mixed_norm_L1F(lines, fft_coefficients(u))
    assert abs(val - math.sqrt(math.pi)) <= 1e-3
    assert ap.mixed_norm_L1F(lines, fft_coefficients(np.zeros_like(u))) == 0.0
    assert ap.mixed_norm_L1F(lines, fft_coefficients(-2.5 * u)) == pytest.approx(
        2.5 * val, rel=1e-12)
    # the lines of every direction at once, against those built as each
    # direction is interpolated
    assert val == pytest.approx(
        mixed_norm_by_direction(grid, u, theta_horizontal, 17, 129, grid.n_pix),
        rel=1e-14, abs=0.0)


def test_norm_lines_are_the_points_of_each_direction(grid, theta_horizontal):
    lines = ap.norm_lines(grid, theta_horizontal, 5, 33, 256, offset_extent=0.8)
    assert lines.coords.shape == (5, 2, 33 * 256) and lines.samples == 256
    offsets = np.linspace(-0.8, 0.8, 33)
    t = np.linspace(-0.75 * grid.box_half, 0.75 * grid.box_half, 256)
    assert lines.dt == t[1] - t[0]
    for coords, v in zip(lines.coords, ap.admissible_directions(theta_horizontal, 5)):
        pts = (offsets[:, None, None] * np.array([-v[1], v[0]])
               + t[None, :, None] * v).reshape(-1, 2)
        assert np.array_equal(coords, ((pts + grid.box_half) / grid.h).T)


def test_admissible_directions(theta):
    dirs = ap.admissible_directions(theta, 17)
    perps = np.stack([-dirs[:, 1], dirs[:, 0]], axis=-1)
    assert np.all(theta.in_cone_plus(perps))


def test_young_basic(grid, theta_horizontal, rng):
    pts = grid_points(grid)
    a = np.exp(-((pts[:, 0] - 0.3) ** 2 + pts[:, 1] ** 2) / 0.5**2)
    u = np.exp(-(pts[:, 0] ** 2 + (pts[:, 1] + 0.4) ** 2) / 0.8**2)
    lhs, rhs, ok = young_check(grid, a.reshape(grid.n_pix, -1),
                               u.reshape(grid.n_pix, -1), theta_horizontal,
                               n_dirs=9, n_offsets=65, line_samples=512)
    assert ok and lhs < rhs
    z = np.zeros((grid.n_pix, grid.n_pix))
    lhs0, rhs0, ok0 = young_check(grid, a.reshape(grid.n_pix, -1), z,
                                  theta_horizontal, n_dirs=5, n_offsets=33,
                                  line_samples=256)
    assert ok0 and lhs0 == 0.0 and rhs0 == 0.0


def test_young_near_delta(theta_horizontal):
    fine = ap.BoxGrid(2.0, 1024)
    pts = grid_points(fine)
    a = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2) / 0.01**2).reshape(1024, 1024)
    a /= a.sum() * fine.h**2
    u = np.exp(-((pts[:, 0] - 0.2) ** 2 + pts[:, 1] ** 2) / 0.3**2).reshape(1024, 1024)
    lhs, rhs, ok = young_check(fine, a, u, theta_horizontal,
                               n_dirs=9, n_offsets=129, line_samples=512,
                               offset_extent=0.8)
    assert ok
    assert lhs / rhs >= 0.95


def _convolve_complex(grid, a, u):
    """a * u on complex FFTs: the reference for the real-FFT convolve."""
    return sfft.ifft2(sfft.fft2(a) * sfft.fft2(sfft.ifftshift(u))) * grid.h**2


def _mixed_norm_complex(grid, u, theta, n_dirs, n_offsets, line_samples):
    """mixed_norm_L1F of complex grid values, from the line values of their
    real and imaginary parts interpolated apart."""
    ext = 0.75 * grid.box_half
    offsets = np.linspace(-ext, ext, n_offsets)
    t = np.linspace(-ext, ext, line_samples)
    coeffs = [ndimage_coefficients(part) for part in (u.real, u.imag)]
    best = 0.0
    for v in ap.admissible_directions(theta, n_dirs):
        nrm = np.array([-v[1], v[0]])
        pts = (offsets[:, None, None] * nrm + t[None, :, None] * v).reshape(-1, 2)
        re, im = (interp(grid, c, pts) for c in coeffs)
        vals = np.abs(re + 1j * im).reshape(n_offsets, line_samples)
        integ = (t[1] - t[0]) * (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))
        best = max(best, float(integ.max()))
    return best


@pytest.mark.parametrize("box_half, n_pix", [(6.0, 512), (2.0, 63)])
def test_convolve_is_the_real_part_of_the_complex_route(box_half, n_pix):
    # the real-FFT convolution (the oracle above) against complex FFTs; the
    # odd grid needs irfft2's s= to get its last column back
    grid = ap.BoxGrid(box_half, n_pix)
    pts = grid_points(grid)
    a = np.exp(-((pts[:, 0] - 0.3) ** 2 + pts[:, 1] ** 2) / 0.5**2)
    u = (np.exp(-(pts[:, 0] ** 2 + (pts[:, 1] + 0.4) ** 2) / 0.8**2)
         * np.cos(2.5 * pts[:, 0] - 1.5 * pts[:, 1]))
    a, u = a.reshape(n_pix, n_pix), u.reshape(n_pix, n_pix)
    ref = _convolve_complex(grid, a, u)
    got = convolve(grid, a, u)
    assert got.dtype == np.float64 and got.shape == a.shape
    assert np.max(np.abs(got - ref.real)) <= 1e-15 * np.max(np.abs(ref))


def test_young_lhs_matches_the_complex_route(theta, monkeypatch):
    # the first 5 pairs of young_trials at seed 0, checked the way they
    # were before the convolution became real: complex FFTs, and the line
    # values of the real and imaginary parts interpolated apart
    checked = recorded_young_checks(monkeypatch)
    assert sum(ok for *_, ok in ap.young_trials(theta, 5, seed=0)) == 5
    assert len(checked) == 5
    for grid, a, u, _, (lhs, rhs, _) in checked:
        want = _mixed_norm_complex(grid, _convolve_complex(grid, a, u), theta,
                                   ap.YOUNG_DIRS, ap.YOUNG_OFFSETS, ap.YOUNG_LINE_SAMPLES)
        assert abs(lhs - want) <= 1e-14 * want
        assert lhs <= rhs


def test_young_trials_match_the_ndimage_route(theta, monkeypatch):
    # the first 20 trials at seed 7 (the benchmark's) against the route
    # before the FFT coefficients: the convolution formed on the grid,
    # ndimage's prefilter, line points rebuilt per direction and the inputs
    # formed point by point
    draws = []
    trial = ap._young_trial

    def recording_trial(grid, lines, symbol, draw):
        draws.append(draw)
        return trial(grid, lines, symbol, draw)

    monkeypatch.setattr(ap, "_young_trial", recording_trial)
    results = ap.young_trials(theta, 20, seed=7)
    assert len(results) == len(draws) == 20
    grid = ap.BoxGrid(6.0, ap.YOUNG_SIDE)
    for draw, (lhs, rhs, ok) in zip(draws, results):
        a, u = young_pair_pointwise(grid, draw)
        lhs0, rhs0, ok0 = young_check_ndimage(
            grid, a, u, theta, n_dirs=ap.YOUNG_DIRS, n_offsets=ap.YOUNG_OFFSETS,
            line_samples=ap.YOUNG_LINE_SAMPLES)
        assert abs(lhs - lhs0) <= 1e-13 * lhs0
        assert abs(rhs - rhs0) <= 1e-13 * rhs0
        assert ok == ok0 is True


def test_young_pairs_are_the_pointwise_formulas(theta, monkeypatch):
    # the outer products of 1-D vectors against the Gaussians and the plane
    # wave formed at every point
    draws = []
    trial = ap._young_trial

    def recording_trial(grid, lines, symbol, draw):
        draws.append(draw)
        return trial(grid, lines, symbol, draw)

    monkeypatch.setattr(ap, "_young_trial", recording_trial)
    checked = recorded_young_checks(monkeypatch)
    ap.young_trials(theta, 6, seed=3)
    assert len(draws) == len(checked) == 6
    for draw, (grid, a, u, _, _) in zip(draws, checked):
        a0, u0 = young_pair_pointwise(grid, draw)
        assert a.shape == a0.shape and u.shape == u0.shape
        assert np.max(np.abs(a - a0)) <= 1e-14 * np.max(np.abs(a0))
        assert np.max(np.abs(u - u0)) <= 1e-14 * np.max(np.abs(u0))


def test_convolve_refuses_complex_input(theta_horizontal):
    # young_check's real FFTs refuse a complex a or u, as the convolution
    # it replaces did
    grid = ap.BoxGrid(2.0, 63)
    a = np.ones((63, 63))
    for x, y in ((a + 0j, a), (a, a + 0j)):
        with pytest.raises(TypeError):
            convolve(grid, x, y)
        with pytest.raises(TypeError):
            young_check(grid, x, y, theta_horizontal, n_dirs=3, n_offsets=5,
                        line_samples=16)


def test_young_random_trials(grid, theta, rng):
    pts = grid_points(grid)
    good = 0
    trials = 20
    for _ in range(trials):
        ca, cu = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        wa, wu = rng.uniform(0.25, 0.9), rng.uniform(0.3, 1.2)
        k = rng.uniform(-4, 4, 2)
        a = np.exp(-((pts[:, 0] - ca[0]) ** 2 + (pts[:, 1] - ca[1]) ** 2) / wa**2)
        u = (np.exp(-((pts[:, 0] - cu[0]) ** 2 + (pts[:, 1] - cu[1]) ** 2) / wu**2)
             * np.cos(k[0] * pts[:, 0] + k[1] * pts[:, 1]))
        _, _, ok = young_check(grid, a.reshape(grid.n_pix, -1),
                               u.reshape(grid.n_pix, -1), theta,
                               n_dirs=9, n_offsets=65, line_samples=384)
        good += int(ok)
    assert good == trials


def test_young_trials_counts_passes(theta):
    results = ap.young_trials(theta, 2, seed=2)
    assert [ok for *_, ok in results] == [True, True]
    assert all(0.0 < lhs <= ap.young_allowance(rhs) for lhs, rhs, _ in results)
    assert ap.young_trials(theta, 0, seed=2) == []


def test_young_trials_same_count_with_a_pool(theta, monkeypatch):
    import hashlib
    from concurrent.futures import ThreadPoolExecutor

    # a verdict that depends on the pair (a, u), so the count is not simply
    # the trial count, and a record of every pair checked
    seen = []

    def verdict_by_pair(grid, a, u, lines, symbol):
        key = hashlib.sha256(a.tobytes() + u.tobytes()).digest()
        seen.append(key)
        return float(key[1]), float(key[2]), key[0] % 2 == 0

    monkeypatch.setattr(ap, "young_check", verdict_by_pair)
    serial = ap.young_trials(theta, 12, seed=4)
    pairs, seen[:] = list(seen), []
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = ap.young_trials(theta, 12, seed=4, pool=pool)
    assert pooled == serial
    assert sum(ok for *_, ok in serial) == sum(k[0] % 2 == 0 for k in pairs)
    assert sorted(seen) == sorted(pairs) and len(set(pairs)) == 12
    monkeypatch.undo()
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert ap.young_trials(theta, 2, seed=2, pool=pool) == ap.young_trials(theta, 2, seed=2)
