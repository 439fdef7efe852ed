"""Dyadic frequency partitions, the periodic grid and the mixed foliation norm.

Functions live on a periodic box [-B, B)^2; frequencies are angular
(multiplier of e^{i xi.x}), on the lattice xi = (pi/B) j.  Band n carries
support in the annulus 2^{n-1} <= |xi| <= 2^{n+1} intersected with the
angular cutoff of its polarization half.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.ndimage import map_coordinates

from ..errors import GridTooCoarse
from ..maps import Polarization, _angdist, _plateau_step

# cubic spline interpolation of grid values along the mixed-norm lines
SPLINE_ORDER = 3
# admissible line directions span this fraction of the cone_plus half-angle
DIRECTION_SHRINK = 0.95
# Young check allowances: relative roundoff, and interpolation plus
# trapezoid error on the shared line sample set, relative to the rhs
YOUNG_REL_SLACK = 1e-6
YOUNG_QUAD_SLACK = 2e-3
# the Young trials: grid side on [-6, 6)^2, line directions, perpendicular
# offsets and samples per line
YOUNG_SIDE = 512
YOUNG_DIRS = 9
YOUNG_OFFSETS = 65
YOUNG_LINE_SAMPLES = 384
# partition_sum_error samples a PARTITION_SIDE^2 lattice of frequencies
PARTITION_SIDE = 512
# largest band cap partition_sum_error takes: its lattice spans
# [-2^n_max, 2^n_max]^2, whose squared norms, up to 2^(2 n_max + 1), stay
# below the largest double (2^1024) only up to n_max = 511; above, they
# overflow to inf, and from 1024 on 2.0**n_max itself raises OverflowError
PARTITION_N_MAX = 511
# points per block of the elementwise band formulas: every temporary of an
# evaluation spans at most this many points, whatever the input size
EVAL_BLOCK = 1 << 15


def mollifier_chi(s):
    """C-infinity cutoff: 1 for s <= 1, 0 for s >= 2, symmetric glue between.

    chi(s) = f(2-s) / (f(2-s) + f(s-1)) with f(t) = exp(-1/t) for t > 0;
    chi(1.5) = 0.5 exactly.
    """
    val = _plateau_step(np.asarray(s, dtype=float), 1.0, 2.0)
    return val if val.ndim else float(val)


def chi_n(xi_norm, n: int):
    """chi(2^{-n} |xi|); chi_{-1} is identically zero."""
    if n < 0:
        return np.zeros_like(np.asarray(xi_norm, dtype=float))
    return mollifier_chi(np.asarray(xi_norm, dtype=float) * 2.0 ** (-n))


def _psi_radial(xi_norm, n: int):
    return chi_n(xi_norm, n) - chi_n(xi_norm, n - 1)


def annulus(norm, n: int):
    """Points of norms norm in the open annulus 2^{n-1} < |xi| < 2^{n+1}
    (|xi| < 2 for n = 0), outside which band n is exactly 0.0."""
    inside = norm < 2.0 ** (n + 1)
    if n > 0:
        inside &= norm > 2.0 ** (n - 1)
    return inside


def point_blocks(n_points: int) -> list:
    """Slices of at most EVAL_BLOCK consecutive points covering range(n_points)."""
    return [slice(b, min(b + EVAL_BLOCK, n_points)) for b in range(0, n_points, EVAL_BLOCK)]


def _over_blocks(values, xi) -> np.ndarray:
    """values(x) on each point_blocks block x of the points xi (..., 2),
    written into one output of shape xi.shape[:-1]."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty(xi.shape[:-1])
    pts, flat = xi.reshape(-1, 2), out.reshape(-1)
    for blk in point_blocks(flat.size):
        flat[blk] = values(pts[blk])
    return out


def _norm(xi):
    return np.sqrt(np.sum(xi**2, axis=-1))


def dyadic_partition_eval(theta: Polarization, n: int, sigma: str, xi):
    """psi_{Theta,n,sigma}(xi): radial dyadic band times the angular cutoff.

    n = 0 is the isotropic core chi_0(xi)/2 for both sigma.  The band is
    exactly 0.0 outside its annulus, so the formula runs only on the points
    inside it.
    """
    return _over_blocks(functools.partial(_band_on_annulus, theta, n, sigma), xi)


def _band_on_annulus(theta, n, sigma, xi):
    norm = _norm(xi)
    inside = annulus(norm, n)
    out = np.zeros(norm.shape)
    out[inside] = _band_values(theta, n, sigma, xi[inside], norm[inside])
    return out


def _band_values(theta, n, sigma, xi, norm):
    """psi_{Theta,n,sigma} at points xi of its annulus, whose norms are norm."""
    if n == 0:
        return chi_n(norm, 0) / 2.0
    rad = _psi_radial(norm, n)
    ang = np.where(norm > 0, _phi_sigma(theta, xi, norm, sigma), 0.0)
    return rad * ang


def _phi_sigma(theta, xi, norm, sigma):
    safe = np.maximum(norm, 1e-300)
    unit = xi / safe[..., None]
    if sigma == "+":
        return theta.phi_plus(unit)
    if sigma == "-":
        return theta.phi_minus(unit)
    raise ValueError("sigma must be '+' or '-'")


def _phi_tilde(theta: Polarization, xi, norm, tau: str):
    """Widened angular cutoffs: phi~_+ = 1 off C_-, phi~_- = 1 off C_+.

    The inner cones C~ use half the angular margin of the gap, so
    phi~_tau = 1 on supp(phi_tau).
    """
    safe = np.maximum(norm, 1e-300)
    unit = xi / safe[..., None]
    t_p = _angdist(np.arctan2(unit[..., 1], unit[..., 0]), theta.axis_plus)
    if tau == "+":
        # transition inside C_-: from its boundary to the half-margin inner cone
        lo = _angdist(theta.axis_plus, theta.axis_minus) - theta.half_minus
        return _plateau_step(t_p, lo, lo + 0.5 * theta.half_minus)
    if tau == "-":
        # zero on the shrunk C~_+, one outside C_+
        return 1.0 - _plateau_step(t_p, 0.5 * theta.half_plus, theta.half_plus)
    raise ValueError("tau must be '+' or '-'")


def psi_tilde_eval(theta: Polarization, ell: int, tau: str, xi):
    """Widened multiplier psi~_{Theta,ell,tau}; equals 1 on supp psi_{ell,tau}.

    Radial part chi(2^{-ell-1}|xi|) - chi(2^{-ell+2}|xi|) for ell >= 1, and
    chi(|xi|/2) for ell = 0.
    """
    return _over_blocks(functools.partial(_psi_tilde_values, theta, ell, tau), xi)


def _psi_tilde_values(theta, ell, tau, xi):
    norm = _norm(xi)
    if ell == 0:
        return mollifier_chi(0.5 * norm)
    rad = mollifier_chi(norm * 2.0 ** (-ell - 1)) - mollifier_chi(norm * 2.0 ** (-ell + 2))
    ang = np.where(norm > 0, _phi_tilde(theta, xi, norm, tau), 0.0)
    return rad * ang


def dyadic_partition_sum(theta: Polarization, xi, n_max: int):
    """sum over n <= n_max, sigma of psi_{Theta,n,sigma}(xi) (= chi_{n_max} there).

    Each band is added only on its annulus: elsewhere it is +0.0, which
    changes no bit of the running total.
    """
    return _over_blocks(functools.partial(_partition_sum_values, theta, n_max), xi)


def _partition_sum_values(theta, n_max, xi):
    norm = _norm(xi)
    total = np.zeros(norm.shape)
    for n in range(n_max + 1):
        inside = annulus(norm, n)
        xi_in, norm_in = xi[inside], norm[inside]
        for sigma in "+-":
            total[inside] += _band_values(theta, n, sigma, xi_in, norm_in)
    return total


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxGrid:
    """Uniform periodic grid on [-B, B)^2 with FFT-ordered frequencies."""

    box_half: float
    n_pix: int

    @property
    def h(self) -> float:
        return 2.0 * self.box_half / self.n_pix

    def coords_1d(self) -> np.ndarray:
        return -self.box_half + self.h * np.arange(self.n_pix)

    def xi_1d(self) -> np.ndarray:
        return 2.0 * math.pi * sfft.fftfreq(self.n_pix, d=self.h)

    @property
    def xi_max(self) -> float:
        return math.pi / self.h

    def require_band(self, n: int):
        if 2.0 ** (n + 1) > self.xi_max:
            raise GridTooCoarse(
                f"band {n} needs |xi| up to {2.0 ** (n + 1):.0f}, Nyquist is {self.xi_max:.0f}"
            )

    def spline_symbol(self) -> np.ndarray:
        """S(2 pi k / n_pix), k = 0..n_pix-1, S(w) = (4 + 2 cos w) / 6: the
        spectrum of the cubic B-spline's values at the nodes along one axis.
        The spectrum of grid values divided by S(w1) S(w2) is that of their
        periodic spline coefficients."""
        return (4.0 + 2.0 * np.cos(2.0 * math.pi * np.arange(self.n_pix) / self.n_pix)) / 6.0


def lattice_points(axis: np.ndarray, k) -> np.ndarray:
    """Points with flat indices k of the square lattice axis x axis in
    row-major order: point k is (axis[k // m], axis[k % m])."""
    m = axis.size
    return np.stack([axis[k // m], axis[k % m]], axis=-1)


def lattice_norms(axis: np.ndarray) -> np.ndarray:
    """|xi| at every point of the square lattice axis x axis, in the order of
    lattice_points: the bits of the norms of the points themselves, with one
    array of the lattice's size."""
    sq = axis**2
    norm = np.add.outer(sq, sq).ravel()
    return np.sqrt(norm, out=norm)


def spline_coefficients(spec: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Periodic cubic spline coefficients of the real grid values whose rfft2
    spectrum is spec, on the square grid whose BoxGrid.spline_symbol is
    symbol; spec is overwritten.

    The spline through the values has them at the nodes, so its
    coefficients' spectrum is theirs divided by S(w1) S(w2), one axis at a
    time; map_coordinates with prefilter=False and mode="grid-wrap"
    interpolates them.
    """
    n = symbol.size
    spec /= symbol[:, None]
    spec /= symbol[: n // 2 + 1]
    return sfft.irfft2(spec, s=(n, n), overwrite_x=True)


# ---------------------------------------------------------------------------
# mixed norm and Young inequality
# ---------------------------------------------------------------------------


def admissible_directions(theta: Polarization, n_dirs: int) -> np.ndarray:
    """Unit line directions v whose conormal v-perp lies inside cone_plus."""
    center = theta.axis_plus + 0.5 * math.pi
    half = theta.half_plus * DIRECTION_SHRINK
    ang = center + np.linspace(-half, half, n_dirs)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


@dataclass(frozen=True)
class NormLines:
    """The sample points of the straight lines a mixed norm integrates over.

    coords[d] holds the grid index coordinates (2, n_offsets * samples) of
    the lines of direction d, one line of samples points after another,
    spaced dt apart.
    """

    coords: np.ndarray
    samples: int
    dt: float


def norm_lines(grid: BoxGrid, theta: Polarization, n_dirs: int, n_offsets: int,
               line_samples: int, offset_extent: float | None = None) -> NormLines:
    """Lines over n_dirs admissible directions and n_offsets perpendicular
    offsets (always including offset zero), sampled at line_samples points
    along [-0.75 B, 0.75 B]."""
    if offset_extent is None:
        offset_extent = 0.75 * grid.box_half
    offsets = np.linspace(-offset_extent, offset_extent, n_offsets)
    half_len = 0.75 * grid.box_half
    t = np.linspace(-half_len, half_len, line_samples)
    coords = np.empty((n_dirs, 2, n_offsets * line_samples))
    for d, v in enumerate(admissible_directions(theta, n_dirs)):
        nrm = np.array([-v[1], v[0]])
        pts = (offsets[:, None, None] * nrm[None, None, :]
               + t[None, :, None] * v[None, None, :]).reshape(-1, 2)
        coords[d] = ((pts + grid.box_half) / grid.h).T
    return NormLines(coords, line_samples, float(t[1] - t[0]))


def mixed_norm_L1F(lines: NormLines, coeffs: np.ndarray) -> float:
    """sup over the lines of the line integral of |u|, u the periodic cubic
    spline with coefficients coeffs; trapezoid rule along each line.

    One direction is interpolated at a time, so no temporary spans every
    line.
    """
    best = 0.0
    for coords in lines.coords:
        vals = map_coordinates(coeffs, coords, order=SPLINE_ORDER, mode="grid-wrap",
                               prefilter=False)
        vals = np.abs(vals, out=vals).reshape(-1, lines.samples)
        integ = lines.dt * (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))
        best = max(best, float(integ.max()))
    return best


def young_check(grid: BoxGrid, a: np.ndarray, u: np.ndarray, lines: NormLines,
                symbol: np.ndarray) -> tuple:
    """(lhs, rhs, pass) for ||a*u||_{L1(F)} <= ||a||_{L1} ||u||_{L1(F)}, a and
    u real grid values, symbol the grid's spline_symbol.

    One real FFT of a and of u gives the spline coefficients of both u and
    the continuous convolution a * u on the periodic grid (u is
    ifftshifted so that index arithmetic matches coordinates that start at
    -B); a * u is never formed on the grid.  Both sides share the same line
    sample set; the quadrature allowance covers interpolation and trapezoid
    error on it.  A complex a or u raises TypeError.
    """
    # each array is dropped once read, so at most five grid arrays live at once
    spec_u = sfft.rfft2(sfft.ifftshift(u))
    spec = sfft.rfft2(a)
    spec *= spec_u
    spec *= grid.h**2
    coeffs = spline_coefficients(spec, symbol)
    del spec
    lhs = mixed_norm_L1F(lines, coeffs)
    del coeffs
    coeffs = sfft.fftshift(spline_coefficients(spec_u, symbol))
    del spec_u
    rhs = float(np.sum(np.abs(a)) * grid.h**2) * mixed_norm_L1F(lines, coeffs)
    return lhs, rhs, bool(lhs <= young_allowance(rhs))


def young_allowance(rhs: float) -> float:
    """The largest lhs young_check passes against rhs: roundoff and the
    quadrature allowance on top of it."""
    return rhs * (1.0 + YOUNG_REL_SLACK) + YOUNG_QUAD_SLACK * rhs


def young_trials(theta: Polarization, n_trials: int, seed: int, pool=None) -> list:
    """The young_check result (lhs, rhs, pass) of each of n_trials random
    pairs (a, u), in trial order.

    a is a Gaussian bump and u a Gaussian-windowed plane wave, with centers,
    widths and wave vectors drawn from one generator seeded by seed, on a
    YOUNG_SIDE^2 grid of [-6, 6)^2.  The line geometry and the spline
    symbol are built once for all trials.  Every trial's parameters are
    drawn here first; with a concurrent.futures pool the trials then run on
    it, read back in trial order, so the results and the first error raised
    are those of a serial run.
    """
    grid = BoxGrid(6.0, YOUNG_SIDE)
    lines = norm_lines(grid, theta, YOUNG_DIRS, YOUNG_OFFSETS, YOUNG_LINE_SAMPLES)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_trials):
        ca, cu = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        wa, wu = rng.uniform(0.25, 0.9), rng.uniform(0.3, 1.2)
        # a second wave vector is drawn but unused; dropping the draw would
        # change every later trial
        k1, _ = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
        draws.append((ca, cu, wa, wu, k1))
    trial = functools.partial(_young_trial, grid, lines, grid.spline_symbol())
    return list((map if pool is None else pool.map)(trial, draws))


def _young_trial(grid: BoxGrid, lines: NormLines, symbol: np.ndarray, draw) -> tuple:
    """young_check on the pair (a, u) of one young_trials draw.

    Both are outer products of 1-D vectors over the grid axis: the Gaussians
    factor, and cos(k.x) = cos(k_1 x_1) cos(k_2 x_2) - sin(k_1 x_1) sin(k_2 x_2).
    """
    ca, cu, wa, wu, k1 = draw
    x = grid.coords_1d()
    A = np.outer(np.exp(-((x - ca[0]) ** 2) / wa**2), np.exp(-((x - ca[1]) ** 2) / wa**2))
    g1 = np.exp(-((x - cu[0]) ** 2) / wu**2)
    g2 = np.exp(-((x - cu[1]) ** 2) / wu**2)
    U = np.outer(g1 * np.cos(k1[0] * x), g2 * np.cos(k1[1] * x))
    U -= np.outer(g1 * np.sin(k1[0] * x), g2 * np.sin(k1[1] * x))
    return young_check(grid, A, U, lines, symbol)


def partition_sum_error(theta: Polarization, n_max: int) -> float:
    """max |sum of psi_{Theta,n,sigma} over n <= n_max + 3, sigma - 1| on the
    PARTITION_SIDE^2 lattice of [-2^n_max, 2^n_max]^2 restricted to
    |xi| <= 2^n_max."""
    t = np.linspace(-(2.0**n_max), 2.0**n_max, PARTITION_SIDE)
    XI = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    XI = XI[np.linalg.norm(XI, axis=1) <= 2.0**n_max]
    return float(np.max(np.abs(dyadic_partition_sum(theta, XI, n_max + 3) - 1.0)))
