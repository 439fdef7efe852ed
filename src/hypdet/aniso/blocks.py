"""Band-to-band blocks of the transfer operator, their masks and traces.

The block S^{l,tau}_{n,sigma} u = psi'_{n,sigma}(D) [G (u o T)] psi~_{l,tau}(D)
is realized as a dense matrix compressed to a decimated set of
frequency-lattice modes per band (plane waves are multiplier eigenfunctions,
so those entries are direct quadratures of the operator).  Flat traces use a
separate shared frequency-lattice quadrature so partial sums telescope
exactly against the chi_{n0} kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyConstraintSet, SingularResolvent
from ..maps import MapSystem, Polarization
from .partition import (
    BoxGrid,
    annulus,
    chi_n,
    dyadic_partition_eval,
    lattice_norms,
    lattice_points,
    point_blocks,
    psi_tilde_eval,
)

TWO_PI = 2.0 * math.pi
# covector directions sampled on the half circle by h_exponents
SPHERE_SAMPLES = 720
# compressed-matrix quadrature: least points per side, and the factor on the
# largest phase rate that sets the point count above it
QUAD_N = 160
QUAD_PAD = 1.3
# flat traces: room added to the largest displacement |T(x) - x| when the
# frequency-lattice spacing is chosen
Y_SAFE = 6.0
# points per block of the x-sums that build the flat-trace kernel W and the
# compressed matrices; a real gemm of W over at most 512 points gets the
# same bits from one and two OpenBLAS threads (over 600 or 744 points it
# does not), while the compressed matrices still differ between the two
W_BLOCK = 512
# e^{i k phi} tables of the flat-trace kernel are products of a coarse table
# in steps of POWER_SPLIT and a fine one of POWER_SPLIT entries
POWER_SPLIT = 32
# kneading_check refuses Id - z M_b with a larger condition number
COND_LIMIT = 1e12
# the chart grid of BlockOperator: its points bound supp G, its frequency
# lattice holds the band modes, and its Nyquist limit caps the bands at n = 6
CHART_GRID = BoxGrid(8.0, 1024)
# decimated lattice modes per band in the compressed matrices
PER_BAND = 16


# ---------------------------------------------------------------------------
# h exponents and the hook relation
# ---------------------------------------------------------------------------


def _weight_support_points(sys: MapSystem, weight, n_side: int = 24):
    (x0, x1), (y0, y1) = sys.box
    t1 = np.linspace(x0, x1, n_side)
    t2 = np.linspace(y0, y1, n_side)
    X = np.stack(np.meshgrid(t1, t2, indexing="ij"), axis=-1).reshape(-1, 2)
    w = np.asarray(weight(X))
    return X[w > 1e-12]


def h_exponents(sys: MapSystem, weight, theta: Polarization,
                theta_prime: Polarization) -> tuple:
    """(h_max_plus, h_min_minus) from the constrained sup/inf over covectors.

    h_max_plus = [log2 sup {|DT^tr xi| : x in supp G, |xi| = 1,
    DT^tr xi not in C'_-}] + 6, and h_min_minus the matching inf over
    xi not in C_+, with offset -6.
    """
    pts = _weight_support_points(sys, weight)
    if pts.shape[0] == 0:
        raise EmptyConstraintSet("weight support contains no sample points")
    ang = np.linspace(0.0, math.pi, SPHERE_SAMPLES, endpoint=False)
    xi = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    J = sys.jacobian(pts)  # (k,2,2)
    img = np.einsum("kji,mj->kmi", J, xi)  # DT^tr xi
    norms = np.linalg.norm(img, axis=-1)

    out_minus = ~theta_prime.in_cone_minus(img.reshape(-1, 2)).reshape(norms.shape)
    if not np.any(out_minus):
        raise EmptyConstraintSet("no covector image escapes C'_-")
    h_plus = int(math.floor(math.log2(np.max(norms[out_minus])))) + 6

    out_plus = ~theta.in_cone_plus(xi)
    if not np.any(out_plus):
        raise EmptyConstraintSet("no covector escapes C_+")
    h_minus = int(math.floor(math.log2(np.min(norms[:, out_plus])))) - 6
    return h_plus, h_minus


def hook(lt: tuple, ns: tuple, h_plus: int, h_minus: int) -> bool:
    """The linkage relation (l,tau) -> (n,sigma); three cases, else false."""
    ell, tau = lt
    n, sigma = ns
    if tau == "+" and sigma == "+":
        return n <= ell + h_plus
    if tau == "-" and sigma == "-":
        return ell + h_minus <= n
    if tau == "+" and sigma == "-":
        return n >= h_minus or ell >= -h_plus
    return False


def band_indices(n_max: int):
    return [(n, s) for n in range(n_max + 1) for s in "+-"]


def hook_mask(n_max: int, h_plus: int, h_minus: int) -> np.ndarray:
    """Boolean (out, in) table of the hook relation over bands n <= n_max."""
    idx = band_indices(n_max)
    mask = np.zeros((len(idx), len(idx)), dtype=bool)
    for j, lt in enumerate(idx):
        for i, ns in enumerate(idx):
            mask[i, j] = hook(lt, ns, h_plus, h_minus)
    return mask


def triangularity_product_check(masks) -> bool:
    """Diagonal of the product of linked-block masks is empty (mask algebra).

    masks: one boolean (out, in) block mask per factor, e.g. from hook_mask
    of iterates with h_plus < 0 < h_minus.  No floating point involved.
    """
    prod = None
    for m in masks:
        prod = m.copy() if prod is None else (prod.astype(int) @ m.astype(int)) > 0
    return not bool(np.any(np.diag(prod)))


# ---------------------------------------------------------------------------
# block operator
# ---------------------------------------------------------------------------


@dataclass
class BlockOperator:
    """Truncated band-block realization of L u = G (u o T) on a chart."""

    sys: MapSystem
    weight: object
    theta: Polarization
    theta_prime: Polarization
    n_max: int
    h_plus: int
    h_minus: int
    _quad: tuple = field(default=None, repr=False)

    def __post_init__(self):
        CHART_GRID.require_band(self.n_max)
        # grid points in supp G; they bound the quadrature grid of the entries
        c = CHART_GRID.coords_1d()
        inside = np.empty(c.size**2, dtype=bool)
        for blk in point_blocks(inside.size):
            pts = lattice_points(c, np.arange(blk.start, blk.stop))
            inside[blk] = np.asarray(self.weight(pts)) > 1e-15
        self._quad = self._quad_grid(lattice_points(c, np.flatnonzero(inside)))

    @property
    def quad_points(self) -> int:
        """Number of quadrature points of the compressed-matrix entries."""
        return self._quad[2].size

    # -- compressed dense matrices -------------------------------------------

    def compressed_matrices(self):
        """(M, M_b, M_c, index) dense matrices on PER_BAND decimated modes of
        each band n <= n_max.

        Entries are direct quadratures psi'(eta) psi~(xi) (1/|box|) int G
        e^{i (xi.T(x) - eta.x)} dx over supp G; the b/c split applies the
        hook mask blockwise.  index lists (band, mode) per matrix row.
        """
        bands = band_indices(self.n_max)
        modes_out, modes_in = self._band_mode_lists(bands)
        idx = [(bi, k) for bi, mo in enumerate(modes_out) for k in range(mo.shape[0])]
        eta = np.vstack(modes_out)
        xi = np.vstack(modes_in)

        C = self._coefficients(eta, xi)

        # multiplier scalings and block masks
        n_b = len(bands)
        sizes_out = [m.shape[0] for m in modes_out]
        sizes_in = [m.shape[0] for m in modes_in]
        off_out = np.cumsum([0] + sizes_out)
        off_in = np.cumsum([0] + sizes_in)
        dim_out, dim_in = off_out[-1], off_in[-1]
        M = np.zeros((dim_out, dim_in), dtype=complex)
        linked = np.zeros((dim_out, dim_in), dtype=bool)
        for i, (n, s) in enumerate(bands):
            po = np.asarray(dyadic_partition_eval(self.theta_prime, n, s, modes_out[i]))
            for j, (l, t) in enumerate(bands):
                pi = np.asarray(psi_tilde_eval(self.theta, l, t, modes_in[j]))
                blk = C[off_out[i]:off_out[i + 1], off_in[j]:off_in[j + 1]]
                M[off_out[i]:off_out[i + 1], off_in[j]:off_in[j + 1]] = (
                    po[:, None] * blk * pi[None, :]
                )
                linked[off_out[i]:off_out[i + 1], off_in[j]:off_in[j + 1]] = hook(
                    (l, t), (n, s), self.h_plus, self.h_minus
                )
        Mb = np.where(linked, M, 0.0)
        Mc = np.where(~linked, M, 0.0)
        return M, Mb, Mc, idx

    def _coefficients(self, eta, xi):
        """C[a, b] = (1/|box|) int G(x) e^{i xi_b.T(x)} e^{-i eta_a.x} dx on a
        local quadrature grid over supp G that resolves the largest phase
        rate, summed over blocks of W_BLOCK points x, so no phase table spans
        every x.  e^{-i eta.x} = e^{-i eta_1 x_1} e^{-i eta_2 x_2} is
        gathered from one table per axis of the tensor grid."""
        (t1, t2), k, w = self._quad
        E1 = np.exp(-1j * np.outer(t1, eta[:, 0]))
        E2 = np.exp(-1j * np.outer(t2, eta[:, 1]))
        i1, i2 = np.divmod(k, t2.size)
        X = np.stack([t1[i1], t2[i2]], axis=-1)
        C = np.zeros((eta.shape[0], xi.shape[0]), dtype=complex)
        for b in range(0, w.size, W_BLOCK):
            blk = slice(b, b + W_BLOCK)
            phase_in_T = np.exp(1j * (self.sys.forward(X[blk]) @ xi.T))
            phase_out_x = E1[i1[blk]] * E2[i2[blk]] * w[blk, None]
            C += phase_out_x.T @ phase_in_T
        C /= (2.0 * CHART_GRID.box_half) ** 2
        return C

    def _band_mode_lists(self, bands):
        """(modes_out, modes_in): the band_modes of each band on the
        CHART_GRID lattice, for theta_prime and theta.

        Each band sees only the lattice points of its annulus: it is +0.0
        outside, and its modes are the points at or above half its maximum,
        so the modes are those of the whole lattice.  Only the lattice's
        norms are held; each annulus's points are made from their indices.
        """
        axis = CHART_GRID.xi_1d()
        norm = lattice_norms(axis)
        same_theta = self.theta == self.theta_prime
        modes_out, modes_in = [], []
        for n, s in bands:
            ring = lattice_points(axis, np.flatnonzero(annulus(norm, n)))
            mo = band_modes(ring, self.theta_prime, n, s)
            modes_out.append(mo)
            modes_in.append(mo if same_theta else band_modes(ring, self.theta, n, s))
        return modes_out, modes_in

    def _quad_grid(self, support: np.ndarray) -> tuple:
        """((t1, t2), k, w): the axes of a tensor grid over the box of the
        support points that resolves the largest phase rate, the flat
        indices k (row-major in t1 x t2) of its points in supp G, and their
        quadrature weights."""
        lo = support.min(axis=0) - 0.05
        hi = support.max(axis=0) + 0.05
        rate = 2.0 ** (self.n_max + 1) * QUAD_PAD * 2.0
        n_need = int(np.ceil(max(hi - lo) * rate / math.pi))
        n_side = max(QUAD_N, n_need)
        t1 = lo[0] + (hi[0] - lo[0]) * (np.arange(n_side) + 0.5) / n_side
        t2 = lo[1] + (hi[1] - lo[1]) * (np.arange(n_side) + 0.5) / n_side
        X = np.stack(np.meshgrid(t1, t2, indexing="ij"), axis=-1).reshape(-1, 2)
        wq = np.asarray(self.weight(X))
        k = np.flatnonzero(wq > 1e-15)
        cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / n_side**2
        return (t1, t2), k, wq[k] * cell


def band_modes(lattice: np.ndarray, theta: Polarization, n: int, sigma: str) -> np.ndarray:
    """PER_BAND decimated modes carrying one band, from the frequency lattice
    points (k, 2)."""
    vals = np.asarray(dyadic_partition_eval(theta, n, sigma, lattice))
    cand = lattice[vals >= 0.5 * vals.max()]
    cand = cand[np.lexsort((cand[:, 1], cand[:, 0]))]
    if cand.shape[0] > PER_BAND:
        stride = cand.shape[0] / PER_BAND
        cand = cand[(np.arange(PER_BAND) * stride).astype(int)]
    return cand


# ---------------------------------------------------------------------------
# flat traces
# ---------------------------------------------------------------------------


@dataclass
class FlatTraceQuadrature:
    """Shared frequency-lattice quadrature for the diagonal-block traces.

    tr_flat(M_zeta_zeta) = int psi_zeta(T(x) - x) -hat kernel- G(x) dx is
    evaluated as (dxi^2 / (2 pi)^2) sum_j psi_zeta(xi_j) W(xi_j) with
    W(xi) = int e^{i (T(x)-x) . xi} G(x) dx computed once; partial sums over
    bands then telescope exactly against the chi_{n0} version.  _W holds
    Re W only: the partition functions are real and the traces are real, so
    the imaginary part of W never reaches a trace.  The lattice points xi_j
    are not held: only their norms, and the points of one band's annulus
    are made from their indices, a block at a time.
    """

    sys: MapSystem
    weight: object
    theta: Polarization
    n0_max: int

    def __post_init__(self):
        pts = _weight_support_points(self.sys, self.weight, n_side=48)
        lo = pts.min(axis=0) - 0.03
        hi = pts.max(axis=0) + 0.03
        disp = self.sys.forward(pts) - pts
        y_max = float(np.max(np.linalg.norm(disp, axis=1))) * 1.1
        self.dxi = TWO_PI / (y_max + Y_SAFE)
        r = 2.0 ** (self.n0_max + 1)
        n_half = int(math.ceil(r / self.dxi))
        j = np.arange(-n_half, n_half + 1)
        # x-grid resolving the phase rate sup |D(T - I)^tr xi| plus bump tails
        rate = r * self._lip_t_minus_i(pts) + 12.0 / max(1e-9, min(hi - lo))
        n_side = int(math.ceil(max(hi - lo) * rate / math.pi * 1.25))
        n_side = max(n_side, 64)
        t1 = lo[0] + (hi[0] - lo[0]) * (np.arange(n_side) + 0.5) / n_side
        t2 = lo[1] + (hi[1] - lo[1]) * (np.arange(n_side) + 0.5) / n_side
        X = np.stack(np.meshgrid(t1, t2, indexing="ij"), axis=-1).reshape(-1, 2)
        wq = np.asarray(self.weight(X))
        keep = wq > 1e-16
        X, wq = X[keep], wq[keep]
        cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / n_side**2
        self._W = _phase_kernel(self.dxi * (self.sys.forward(X) - X), wq * cell, j)
        # sizes the aniso report records: lattice points per side, x points
        self.lattice_side, self.x_points = j.size, wq.size
        self._axis = j * self.dxi
        self._norm = lattice_norms(self._axis)

    def _lip_t_minus_i(self, pts):
        J = self.sys.jacobian(pts) - np.eye(2)
        return float(np.max(np.linalg.norm(J, axis=(1, 2)))) * 1.1

    def band_trace(self, n: int, sigma: str) -> float:
        """Flat trace of one diagonal block, summed over its band's annulus
        2^{n-1} < |xi| < 2^{n+1} (|xi| < 2 for n = 0), where it is nonzero."""
        inside = np.flatnonzero(annulus(self._norm, n))
        W = self._W.ravel()
        terms = np.empty(inside.size)
        for blk in point_blocks(inside.size):
            k = inside[blk]
            xi = lattice_points(self._axis, k)
            terms[blk] = dyadic_partition_eval(self.theta, n, sigma, xi) * W[k]
        return float(np.sum(terms) * self.dxi**2 / TWO_PI**2)

    def partial_sum(self, n0: int) -> float:
        """sum of band traces over n <= n0, both sigma."""
        return math.fsum(self.band_trace(n, s) for n in range(n0 + 1) for s in "+-")

    def chi_trace(self, n0: int) -> float:
        """int chi_hat_{n0}(T(x)-x) G(x) dx on the same lattice (telescoped form)."""
        W = self._W.ravel()
        terms = np.empty(W.size)
        for blk in point_blocks(W.size):
            terms[blk] = chi_n(self._norm[blk], n0) * W[blk]
        return float(np.sum(terms) * self.dxi**2 / TWO_PI**2)

    def fixed_point_value(self) -> float:
        """Oracle limit: sum over fixed points in supp G of G/|det(Id-DT)|."""
        from scipy.optimize import fsolve

        pts = _weight_support_points(self.sys, self.weight, n_side=16)
        # fsolve leaves its callable in a reference cycle: a closure over
        # self would keep the quadrature's lattice arrays alive until the
        # cyclic collector runs
        forward = self.sys.forward
        roots = []
        for x0 in pts[:: max(1, len(pts) // 25)]:
            # fsolve iterates on one point, which the map takes as a batch of one
            r = fsolve(lambda x: forward(x.reshape(1, 2))[0] - x, x0, full_output=True)
            if r[2] == 1:
                roots.append(r[0])
        roots = np.array(roots).reshape(-1, 2)
        fixed = []
        for x in roots[np.asarray(self.weight(roots)) > 1e-15]:
            if not any(np.linalg.norm(x - c) < 1e-8 for c in fixed):
                fixed.append(x)
        X = np.array(fixed).reshape(-1, 2)
        dets = np.abs(np.linalg.det(np.eye(2) - self.sys.jacobian(X)))
        return float(sum(np.asarray(self.weight(X)) / dets))


def _phase_kernel(phase: np.ndarray, w: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Re W[j1, j2] = sum_x w(x) cos(j1 phase_1(x) + j2 phase_2(x)), j = -n..n.

    Only the real part: every reader weighs W with a real partition
    function and keeps the real part of the sum.  For real w it is even,
    Re W(-xi) = Re W(xi), so only the rows j1 >= 0 are summed, from
    P = sum w cos(j1 phase_1) cos(j2 phase_2) and Q = sum w sin sin over
    j1, j2 >= 0 (one real gemm each per block of W_BLOCK points x, so no
    table spans every x): Re W is P - Q at j2 >= 0 and P + Q at -j2, and
    the rows j1 < 0 are the mirror image of the rows j1 > 0.
    """
    n = j.size // 2
    P = np.zeros((n + 1, n + 1))
    Q = np.zeros((n + 1, n + 1))
    for b in range(0, w.size, W_BLOCK):
        blk = slice(b, b + W_BLOCK)
        C1, S1 = _cos_sin_powers(phase[blk, 0], n)
        C2, S2 = _cos_sin_powers(phase[blk, 1], n)
        wb = w[blk, None]
        P += (wb * C1).T @ C2
        Q += (wb * S1).T @ S2
    R = np.hstack([(P + Q)[:, :0:-1], P - Q])
    return np.concatenate([R[1:][::-1, ::-1], R])


def _cos_sin_powers(phi: np.ndarray, n: int) -> tuple:
    """(cos, sin) of k phi for k = 0..n, one row per point of phi.

    e^{i k phi} is the product of a coarse table e^{i POWER_SPLIT a phi} and
    a fine one e^{i b phi}, k = POWER_SPLIT a + b, so only
    n / POWER_SPLIT + POWER_SPLIT complex exponentials are taken per point.
    """
    a = np.arange(n // POWER_SPLIT + 1) * POWER_SPLIT
    b = np.arange(POWER_SPLIT)
    coarse = np.exp(1j * np.outer(phi, a))
    fine = np.exp(1j * np.outer(phi, b))
    E = (coarse[:, :, None] * fine[:, None, :]).reshape(phi.size, -1)[:, : n + 1]
    return E.real, E.imag


# ---------------------------------------------------------------------------
# kneading identity
# ---------------------------------------------------------------------------


def kneading_check(M: np.ndarray, Mb: np.ndarray, Mc: np.ndarray, z_samples) -> dict:
    """det(Id - zM) = det(Id - z Mc (Id - z Mb)^{-1}) det(Id - z Mb) at samples.

    Pure finite-matrix identity; fails only through conditioning, which is
    guarded by COND_LIMIT on Id - z Mb.
    """
    dim = M.shape[0]
    eye = np.eye(dim)
    rows = []
    worst = 0.0
    for z in z_samples:
        A = eye - z * Mb
        cond = np.linalg.cond(A)
        if cond > COND_LIMIT:
            raise SingularResolvent(f"cond(Id - z Mb) = {cond:.2e} at z = {z}")
        lhs = np.linalg.det(eye - z * M)
        rhs = np.linalg.det(eye - z * Mc @ np.linalg.inv(A)) * np.linalg.det(A)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, rel)
        rows.append({"z": complex(z), "lhs": complex(lhs), "rhs": complex(rhs),
                     "rel_err": float(rel), "cond": float(cond)})
    return {"rows": rows, "max_rel_err": worst, "pass": worst <= 1e-8}
