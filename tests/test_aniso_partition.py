import math

import numpy as np
import pytest

from hypdet import maps
from hypdet.aniso import partition as ap
from hypdet.errors import GridTooCoarse, SupportMarginViolated


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


def test_mollifier_values():
    assert ap.mollifier_chi(0.5) == 1.0
    assert abs(ap.mollifier_chi(1.5) - 0.5) < 1e-15
    assert ap.mollifier_chi(2.3) == 0.0
    s = np.linspace(-1, 4, 301)
    v = ap.mollifier_chi(s)
    assert np.all(np.diff(v) <= 1e-15)  # nonincreasing
    assert np.all((v >= 0) & (v <= 1))


def test_partition_at_origin(theta):
    zero = np.zeros((1, 2))
    assert ap.dyadic_partition_eval(theta, 0, "+", zero)[0] == 0.5
    assert ap.dyadic_partition_eval(theta, 0, "-", zero)[0] == 0.5
    for n in (1, 2):
        for s in "+-":
            assert ap.dyadic_partition_eval(theta, n, s, zero)[0] == 0.0


def test_partition_sums_to_one(theta, rng):
    assert ap.partition_sum_error(theta, 9, side=512) <= 1e-12


def test_psi_tilde_covers_psi_support(theta, rng):
    XI = rng.uniform(-300, 300, size=(20000, 2))
    for n in (0, 1, 4, 6):
        for s in "+-":
            psi = ap.dyadic_partition_eval(theta, n, s, XI)
            tilde = ap.psi_tilde_eval(theta, n, s, XI)
            on_supp = psi > 1e-12
            assert np.all(np.abs(tilde[on_supp] - 1.0) < 1e-12)


def test_psi_hat_l1_uniformly_bounded(theta):
    vals = [ap.psi_hat_l1_bound(theta, n, "+", box_half=24.0, n_pix=512)
            for n in (1, 2, 4)]
    assert max(vals) < 20.0
    assert max(vals) / min(vals) < 1.5  # scaling law: the L1 norm is n-independent


def test_band_project_plane_waves(grid, theta):
    j = int(round(8.0 / grid.dxi))
    xi0 = np.array([j * grid.dxi, 0.0])  # radially at 2^3, inside cone_plus
    pts = grid.points()
    pw = np.exp(1j * (pts @ xi0)).reshape(grid.n_pix, grid.n_pix)
    kept = ap.band_project(grid, pw, theta, 3, "+", check_margin=False)
    assert np.max(np.abs(kept.values - pw)) <= 1e-10
    killed = ap.band_project(grid, pw, theta, 3, "-", check_margin=False)
    assert np.max(np.abs(killed.values)) <= 1e-10
    assert kept.band_mass_outside() <= 1e-8


def test_band_project_reconstruction(grid, theta):
    pts = grid.points()
    env = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2) / 1.2**2)
    u = (env * np.exp(1j * 10.0 * pts[:, 0])).reshape(grid.n_pix, grid.n_pix)
    total = sum(ap.band_project(grid, u, theta, n, s).values
                for n in range(0, 7) for s in "+-")
    assert np.max(np.abs(total - u)) <= 1e-10 * np.max(np.abs(u))


def test_band_project_margin_guard(grid, theta):
    pts = grid.points()
    wide = np.exp(-(pts[:, 0] ** 2) / 25.0).reshape(grid.n_pix, grid.n_pix)
    with pytest.raises(SupportMarginViolated):
        ap.band_project(grid, wide, theta, 2, "+")


def test_grid_too_coarse(theta):
    small = ap.BoxGrid(8.0, 128)
    pts = small.points()
    u = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2)).reshape(128, 128)
    with pytest.raises(GridTooCoarse):
        ap.band_project(small, u, theta, 8, "+")


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
    pts = grid.points()
    u = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2)).reshape(grid.n_pix, grid.n_pix)
    val = ap.mixed_norm_L1F(grid, u, theta_horizontal)
    assert abs(val - math.sqrt(math.pi)) <= 1e-3
    assert ap.mixed_norm_L1F(grid, np.zeros_like(u), theta_horizontal) == 0.0
    assert ap.mixed_norm_L1F(grid, -2.5 * u, theta_horizontal) == pytest.approx(
        2.5 * val, rel=1e-12)


def test_admissible_directions(theta):
    dirs = ap.admissible_directions(theta, 17)
    perps = np.stack([-dirs[:, 1], dirs[:, 0]], axis=-1)
    assert np.all(theta.in_cone_plus(perps))


def test_young_basic(grid, theta_horizontal, rng):
    pts = grid.points()
    a = np.exp(-((pts[:, 0] - 0.3) ** 2 + pts[:, 1] ** 2) / 0.5**2)
    u = np.exp(-(pts[:, 0] ** 2 + (pts[:, 1] + 0.4) ** 2) / 0.8**2)
    lhs, rhs, ok = ap.young_check(grid, a.reshape(grid.n_pix, -1),
                                  u.reshape(grid.n_pix, -1), theta_horizontal,
                                  n_dirs=9, n_offsets=65, line_samples=512)
    assert ok and lhs < rhs
    z = np.zeros((grid.n_pix, grid.n_pix))
    lhs0, rhs0, ok0 = ap.young_check(grid, a.reshape(grid.n_pix, -1), z,
                                     theta_horizontal, n_dirs=5, n_offsets=33,
                                     line_samples=256)
    assert ok0 and lhs0 == 0.0 and rhs0 == 0.0


def test_young_near_delta(theta_horizontal):
    fine = ap.BoxGrid(2.0, 1024)
    pts = fine.points()
    a = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2) / 0.01**2).reshape(1024, 1024)
    a /= a.sum() * fine.h**2
    u = np.exp(-((pts[:, 0] - 0.2) ** 2 + pts[:, 1] ** 2) / 0.3**2).reshape(1024, 1024)
    lhs, rhs, ok = ap.young_check(fine, a, u, theta_horizontal,
                                  n_dirs=9, n_offsets=129, line_samples=512,
                                  offset_extent=0.8)
    assert ok
    assert lhs / rhs >= 0.95


def test_young_random_trials(grid, theta, rng):
    pts = grid.points()
    good = 0
    trials = 20
    for _ in range(trials):
        ca, cu = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        wa, wu = rng.uniform(0.25, 0.9), rng.uniform(0.3, 1.2)
        k = rng.uniform(-4, 4, 2)
        a = np.exp(-((pts[:, 0] - ca[0]) ** 2 + (pts[:, 1] - ca[1]) ** 2) / wa**2)
        u = (np.exp(-((pts[:, 0] - cu[0]) ** 2 + (pts[:, 1] - cu[1]) ** 2) / wu**2)
             * np.cos(k[0] * pts[:, 0] + k[1] * pts[:, 1]))
        _, _, ok = ap.young_check(grid, a.reshape(grid.n_pix, -1),
                                  u.reshape(grid.n_pix, -1), theta,
                                  n_dirs=9, n_offsets=65, line_samples=384)
        good += int(ok)
    assert good == trials


def test_young_trials_counts_passes(theta):
    assert ap.young_trials(theta, 2, seed=2) == 2
    assert ap.young_trials(theta, 0, seed=2) == 0
