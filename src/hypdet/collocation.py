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
from scipy.sparse import _sparsetools

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
            # fft2 transforms axis 0, then axis 1: axis 1 on the kept rows
            # only gives the same bits
            M[:, col] = sfft.fft(sfft.fft(cur, axis=0)[idx], axis=1)[:, idx].ravel() / (G * G)
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
    # the grids are held transposed, so the first transform of fft2 (axis 0)
    # runs along the contiguous axis; the products have the same bits
    W = np.asarray(sys.weight(pts)).reshape(Gs, Gs).astype(complex).T.copy()
    E1 = np.exp(TWO_PI * 1j * S[:, 0]).reshape(Gs, Gs).T.copy()
    E2 = np.exp(TWO_PI * 1j * S[:, 1]).reshape(Gs, Gs).T.copy()
    dvals = np.concatenate([np.arange(0, Gs // 2), np.arange(-Gs // 2, 0)]).astype(np.int32)
    dim = (2 * N + 1) ** 2
    side = 2 * N + 1
    # column k keeps the rows k' = A^tr k + d with |k'|_inf <= N, so each d_i
    # ranges over the FFT indices of a window known before the FFT: those of
    # c + d in [-N, N], for every c = (A^tr k)_i a column can have
    c_max = N * int(np.abs(A).sum(axis=0).max())
    window = {c: np.flatnonzero(np.abs(c + dvals) <= N) for c in range(-c_max, c_max + 1)}

    def columns(k1s, E1_pow):
        """Row indices, values and per-column counts of the columns k1 in
        k1s, in column order; E1_pow is W E1^{k1s[0]}, transposed."""
        rows_b = [np.zeros(0, dtype=np.int32)]
        vals_b = [np.zeros(0, dtype=complex)]
        counts = []
        for k1 in k1s:
            cur = E1_pow * E2 ** (-N)
            for k2 in range(-N, N + 1):
                # Python ints keep the row indices int32, the CSC index type
                c1 = int(A[0, 0] * k1 + A[1, 0] * k2)
                c2 = int(A[0, 1] * k1 + A[1, 1] * k2)
                r1, r2 = window[c1], window[c2]
                if r1.size and r2.size:
                    # fft2 transforms axis 0, then axis 1: axis 1 on the
                    # window rows only, then the window columns, gives the
                    # same bits; cur is transposed, so the block comes out
                    # transposed too
                    coeffs = sfft.fft(sfft.fft(cur, axis=1)[:, r1], axis=0)[r2].T / (Gs * Gs)
                    keep = np.abs(coeffs) > SPARSE_DROP_TOL
                    kp = (c1 + dvals[r1] + N)[:, None] * side + (c2 + dvals[r2] + N)
                    rows_b.append(kp[keep])
                    vals_b.append(coeffs[keep])
                    counts.append(rows_b[-1].size)
                else:
                    counts.append(0)
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
    rows, vals, counts = zip(*(pool.map if pool is not None else map)(columns, blocks, starts))
    # columns come in order, so their counts give the CSC pointer directly
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    M = sparse.csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                          shape=(dim, dim))
    del rows, vals
    M = M.tocsr()
    if dim <= DENSE_DIM_LIMIT:
        return M.toarray()
    return M


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigen_resonances(tm: TransferMatrix, top: int | None = None, seed: int = 0,
                     pool: Executor | None = None):
    """Eigenvalues sorted by modulus, with residual estimates.

    top = None runs the dense nonsymmetric eigensolve and returns the whole
    spectrum (allowed up to DENSE_EIG_LIMIT modes); it is the reference
    route.  top = K runs a deterministic seeded subspace iteration
    (SUBSPACE_ITERS steps) and returns the K largest-modulus Ritz values;
    accuracy is certified by the residuals (check_residuals) and by
    doubled-resolution filtering downstream.  With a pool, each product of
    a CSR matrix runs as two row halves, one there and one on this thread;
    the result is the same bit for bit.
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
    if pool is not None and sparse.issparse(M):
        product = _split_product(M, pool)
    else:
        product = M.__matmul__
    rng = np.random.default_rng(seed)
    b = min(dim, top + 16)
    Q = rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b))
    Q, _ = np.linalg.qr(Q)
    for _ in range(SUBSPACE_ITERS):
        Z = product(Q)
        # only the product is live while it is factored
        del Q
        Q, _ = np.linalg.qr(Z)
        del Z
    H = Q.conj().T @ product(Q)
    w, S = np.linalg.eig(H)
    V = Q @ S
    del Q
    R = product(V)
    R -= V * w[None, :]
    res = np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(V, axis=0), 1e-300)
    order = np.argsort(-np.abs(w))[:top]
    return w[order], res[order]


def _split_product(M, pool):
    """X -> M @ X for CSR M, its rows in two halves of about equal nnz: the
    first on the pool, the second on this thread.

    Both halves run scipy's CSR kernel on M's own arrays and write into one
    output, as M @ X does for all rows; each row is summed in the same
    order, so the result has the same bits.  (The halves as matrices of
    their own, multiplied with @, would each allocate a result, and stacking
    them a third array.)
    """
    n = M.shape[0]
    h = int(np.searchsorted(M.indptr, M.nnz // 2))
    data = M.data.astype(complex, copy=False)

    def rows(start, stop, X, Z):
        _sparsetools.csr_matvecs(stop - start, M.shape[1], X.shape[1],
                                 M.indptr[start:stop + 1], M.indices, data,
                                 X.ravel(), Z[start:stop].ravel())

    def product(X):
        X = np.ascontiguousarray(X, dtype=complex)
        Z = np.zeros((n, X.shape[1]), dtype=complex)
        head = pool.submit(rows, 0, h, X, Z)
        try:
            rows(h, n, X, Z)
        finally:
            head.result()
        return Z

    return product


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
