"""Fourier collocation of the transfer operator on torus maps.

The operator L u = g (u o T) is discretized on the modes k in [-N, N]^2 by
sampling g e_k(T x) on an oversampled grid and projecting back by FFT.  The
mode count picks one of two builds of the same coefficients: the direct
per-column FFT of the sampled symbol up to FFT_MAX_DIM modes, and above it a
factored path for maps given as (integer linear part) + (smooth periodic
part), which evaluates them on a much smaller grid.  The tests check entries
of both against direct quadrature.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sparse

from .determinant import BACKWARD_ERROR_THRESHOLD
from .errors import EigenSolverFailure
from .maps import MapSystem

TWO_PI = 2.0 * math.pi
DENSE_DIM_LIMIT = 4500
DENSE_EIG_LIMIT = 2600
SPARSE_DROP_TOL = 1e-13
SUBSPACE_ITERS = 24
RITZ_RESIDUAL_TOL = 1e-8
STABILITY_RTOL = 1e-6
# the FFT build samples on a (GRID_FACTOR (2N+1))^2 grid, the anti-aliasing
# minimum; above FFT_MAX_DIM modes the factored build takes over
GRID_FACTOR = 4
FFT_MAX_DIM = 2000
# k1 rows per task of the factored build: about ten tasks at 2 n_freq = 40,
# so a pool of a few workers stays busy to the end
BUILD_BLOCK_ROWS = 8


@dataclass(frozen=True)
class TransferMatrix:
    """Truncated collocation matrix over modes k in [-N, N]^2.

    matrix is dense (ndarray) up to DENSE_DIM_LIMIT modes, scipy CSR above;
    the factored build drops entries of modulus at most SPARSE_DROP_TOL,
    the FFT build keeps them.
    """

    n_freq: int
    matrix: object

    @property
    def dim(self) -> int:
        return (2 * self.n_freq + 1) ** 2

    def toarray(self) -> np.ndarray:
        if isinstance(self.matrix, np.ndarray):
            return self.matrix
        return self.matrix.toarray()


def _grid(G):
    t = np.arange(G) / G
    return np.meshgrid(t, t, indexing="ij")


def build_transfer_matrix(sys: MapSystem, n_freq: int, pool: Executor | None = None
                          ) -> TransferMatrix:
    """Collocation matrix of u -> g (u o T) on modes [-N, N]^2.

    Up to FFT_MAX_DIM modes g e_k(Tx) is sampled on the (GRID_FACTOR (2N+1))^2
    grid and each column FFT-projected; above it the homology decomposition
    T = A x + s(x) gives the identical coefficients on a small grid sized by
    the Bessel tail of exp(2 pi i k.s).  With a pool, the factored build runs
    its blocks of k1 rows there; the matrix is the same bit for bit.
    """
    if sys.linear_part is None or sys.periodic_part is None:
        raise ValueError("collocation requires a torus map with "
                         "linear_part and periodic_part")
    if (2 * n_freq + 1) ** 2 <= FFT_MAX_DIM:
        return TransferMatrix(n_freq=n_freq, matrix=_build_fft(sys, n_freq))
    return TransferMatrix(n_freq=n_freq, matrix=_build_factored(sys, n_freq, pool))


def _build_fft(sys, N):
    """Dense matrix: per-column FFT of g e_k(Tx) on the oversampled grid."""
    G = GRID_FACTOR * (2 * N + 1)
    X1, X2 = _grid(G)
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    T = sys.forward(pts)
    W = np.asarray(sys.weight(pts)).reshape(G, G).astype(complex)
    E1 = np.exp(TWO_PI * 1j * T[:, 0]).reshape(G, G)
    E2 = np.exp(TWO_PI * 1j * T[:, 1]).reshape(G, G)
    dim = (2 * N + 1) ** 2
    # rows/cols of the [-N, N] block in fft2 output
    idx = np.arange(-N, N + 1) % G
    M = np.zeros((dim, dim), dtype=complex)
    E1_pow = W * E1 ** (-N)
    for k1 in range(-N, N + 1):
        cur = E1_pow * E2 ** (-N)
        for k2 in range(-N, N + 1):
            col = (k1 + N) * (2 * N + 1) + (k2 + N)
            M[:, col] = sfft.fft2(cur)[np.ix_(idx, idx)].ravel() / (G * G)
            cur = cur * E2
        E1_pow = E1_pow * E1
    return M


def _bessel_cutoff(z: float) -> int:
    # J_n(z) < 1e-15 beyond roughly z + 8 z^{1/3} + 12
    return int(math.ceil(z + 8.0 * z ** (1.0 / 3.0) + 12.0))


def _build_factored(sys, N, pool=None):
    A = np.asarray(sys.linear_part, dtype=np.int64)
    # bound the phase 2 pi |k . s(x)| to size the small grid
    probe = _grid(64)
    ppts = np.stack([probe[0].ravel(), probe[1].ravel()], axis=-1)
    s_vals = sys.periodic_part(ppts)
    s_sup = float(np.max(np.abs(s_vals), axis=0).sum())
    z_max = TWO_PI * N * s_sup
    d_cut = _bessel_cutoff(z_max)
    Gs = sfft.next_fast_len(max(4 * d_cut + 4, 32), real=False)
    X1, X2 = _grid(Gs)
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    S = sys.periodic_part(pts)
    W = np.asarray(sys.weight(pts)).reshape(Gs, Gs).astype(complex)
    E1 = np.exp(TWO_PI * 1j * S[:, 0]).reshape(Gs, Gs)
    E2 = np.exp(TWO_PI * 1j * S[:, 1]).reshape(Gs, Gs)
    dvals = np.concatenate([np.arange(0, Gs // 2), np.arange(-Gs // 2, 0)])
    D1, D2 = np.meshgrid(dvals, dvals, indexing="ij")
    D1 = D1.ravel()
    D2 = D2.ravel()
    dim = (2 * N + 1) ** 2
    side = 2 * N + 1

    def columns(k1s, E1_pow):
        """Row indices, values and per-column counts of the columns k1 in
        k1s, in column order; E1_pow is W E1^{k1s[0]}."""
        rows_b, vals_b, counts = [], [], []
        for k1 in k1s:
            cur = E1_pow * E2 ** (-N)
            for k2 in range(-N, N + 1):
                coeffs = (sfft.fft2(cur) / (Gs * Gs)).ravel()
                keep = np.abs(coeffs) > SPARSE_DROP_TOL
                kp1 = A[0, 0] * k1 + A[1, 0] * k2 + D1[keep]
                kp2 = A[0, 1] * k1 + A[1, 1] * k2 + D2[keep]
                # k' = A^tr k + d, kept only inside the truncation
                inside = (np.abs(kp1) <= N) & (np.abs(kp2) <= N)
                rows_b.append((kp1[inside] + N) * side + (kp2[inside] + N))
                vals_b.append(coeffs[keep][inside])
                counts.append(rows_b[-1].size)
                cur = cur * E2
            E1_pow = E1_pow * E1
        return np.concatenate(rows_b), np.concatenate(vals_b), counts

    # each block starts from W E1^{k1} of one running product, so its
    # columns have the bits of a build in one piece
    blocks = [range(k, min(k + BUILD_BLOCK_ROWS, N + 1))
              for k in range(-N, N + 1, BUILD_BLOCK_ROWS)]
    starts = []
    E1_pow = W * E1 ** (-N)
    for block in blocks:
        starts.append(E1_pow)
        for _ in block:
            E1_pow = E1_pow * E1
    parts = list((pool.map if pool is not None else map)(columns, blocks, starts))
    # columns come in order, so their counts give the CSC pointer directly
    indptr = np.concatenate([[0], np.cumsum([c for part in parts for c in part[2]])])
    M = sparse.csc_matrix(
        (np.concatenate([part[1] for part in parts]),
         np.concatenate([part[0] for part in parts]), indptr),
        shape=(dim, dim),
    ).tocsr()
    if dim <= DENSE_DIM_LIMIT:
        return M.toarray()
    return M


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigen_resonances(tm: TransferMatrix, top: int | None = None, seed: int = 0):
    """Eigenvalues sorted by modulus, with residual estimates.

    top = None runs the dense nonsymmetric eigensolve and returns the whole
    spectrum (allowed up to DENSE_EIG_LIMIT modes); it is the reference
    route.  top = K runs a deterministic seeded subspace iteration
    (SUBSPACE_ITERS steps) and returns the K largest-modulus Ritz values;
    accuracy is certified by the residuals (check_residuals) and by
    doubled-resolution filtering downstream.
    """
    dim = tm.dim
    if top is None:
        if dim > DENSE_EIG_LIMIT:
            raise EigenSolverFailure(
                f"dense eigensolve refused at dim {dim}; pass top=K"
            )
        M = tm.toarray()
        try:
            w, V = np.linalg.eig(M)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigenSolverFailure(str(exc)) from exc
        R = M @ V - V * w[None, :]
        res = np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(V, axis=0), 1e-300)
        order = np.argsort(-np.abs(w))
        return w[order], res[order]

    M = tm.matrix
    rng = np.random.default_rng(seed)
    b = min(dim, top + 16)
    Q = rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b))
    Q, _ = np.linalg.qr(Q)
    for _ in range(SUBSPACE_ITERS):
        Z = M @ Q
        Q, _ = np.linalg.qr(Z)
    H = Q.conj().T @ (M @ Q)
    w, S = np.linalg.eig(H)
    V = Q @ S
    R = M @ V - V * w[None, :]
    res = np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(V, axis=0), 1e-300)
    order = np.argsort(-np.abs(w))[:top]
    return w[order], res[order]


def stability_filter(eigs_n, eigs_2n):
    """Match eigenvalues reproduced at doubled resolution within relative
    STABILITY_RTOL.

    Greedy nearest-neighbor matching; each doubled-resolution eigenvalue is
    used at most once.  Returns the (k, 2) integer array of matched
    (index in eigs_n, index in eigs_2n) pairs, largest |eigs_n| first, so
    per-eigenvalue data such as residuals can follow the stable values
    eigs_n[idx[:, 0]].
    """
    eigs_n = np.asarray(eigs_n)
    eigs_2n = np.asarray(eigs_2n)
    pool = list(range(len(eigs_2n)))
    pairs = []
    for i in sorted(range(len(eigs_n)), key=lambda i: -abs(eigs_n[i])):
        if not pool:
            break
        mu = eigs_n[i]
        dists = [abs(mu - eigs_2n[j]) for j in pool]
        jj = int(np.argmin(dists))
        nu = eigs_2n[pool[jj]]
        if dists[jj] <= STABILITY_RTOL * max(abs(mu), abs(nu)) or dists[jj] == 0.0:
            pairs.append((i, pool.pop(jj)))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def check_residuals(eigs, residuals):
    """Raise EigenSolverFailure unless every Ritz residual is at most
    RITZ_RESIDUAL_TOL * max(1, |mu|)."""
    eigs = np.asarray(eigs)
    residuals = np.asarray(residuals)
    bad = residuals > RITZ_RESIDUAL_TOL * np.maximum(1.0, np.abs(eigs))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise EigenSolverFailure(
            f"eigenvalue {complex(eigs[i]):.6g} has residual {residuals[i]:.2e} "
            f"above {RITZ_RESIDUAL_TOL:g} * max(1, |mu|)"
        )


def match_resonances_to_zeros(stable_eigs, zeros, radius: float, tol: float = 1e-4) -> dict:
    """Bijective matching of determinant zeros to stable eigenvalues.

    Every zero z with |z| < radius and a backward error det_zeros does not
    flag (at most BACKWARD_ERROR_THRESHOLD) needs a stable eigenvalue mu
    with |mu - 1/z| <= tol, and every stable eigenvalue with |1/mu| < radius
    needs a zero.  Multiplicities are compared through cluster sizes.
    """
    zs = [z for z in zeros
          if abs(z["zero"]) < radius and z["backward_error"] <= BACKWARD_ERROR_THRESHOLD]
    eig_clusters = _cluster_eigs(
        [mu for mu in stable_eigs if abs(mu) > 1e-300 and 1.0 / abs(mu) < radius], tol
    )
    pairs = []
    unmatched_zeros = []
    used = set()
    for z in zs:
        target = 1.0 / z["zero"]
        best, best_d = None, math.inf
        for i, (mu, count) in enumerate(eig_clusters):
            if i in used:
                continue
            d = abs(mu - target)
            if d < best_d:
                best, best_d = i, d
        if best is not None and best_d <= tol:
            mu, count = eig_clusters[best]
            used.add(best)
            pairs.append({
                "zero": z["zero"],
                "inverse": target,
                "eigenvalue": mu,
                "gap": best_d,
                "multiplicity_zero": z["multiplicity"],
                "multiplicity_eig": count,
            })
        else:
            unmatched_zeros.append(z)
    unmatched_eigs = [eig_clusters[i][0] for i in range(len(eig_clusters)) if i not in used]
    return {
        "pairs": pairs,
        "unmatched_zeros": unmatched_zeros,
        "unmatched_eigenvalues": unmatched_eigs,
        "pass": not unmatched_zeros and not unmatched_eigs,
        "radius": radius,
        "tol": tol,
    }


def _cluster_eigs(eigs, tol):
    clusters = []
    for mu in sorted(eigs, key=lambda z: (-abs(z), z.real, z.imag)):
        for cl in clusters:
            if abs(mu - np.mean(cl)) <= tol:
                cl.append(mu)
                break
        else:
            clusters.append([mu])
    return [(complex(np.mean(cl)), len(cl)) for cl in clusters]
