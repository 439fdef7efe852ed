"""Fourier collocation of the transfer operator on torus maps.

The operator L u = g (u o T) is discretized on the modes k in [-N, N]^2 by
sampling g e_k(T x) on an oversampled grid and projecting back by FFT.  The
mode count picks one of two builds of the same coefficients: the direct
per-column FFT of the sampled symbol up to FFT_MAX_DIM modes, and above it a
factored path for maps given as (integer linear part) + (smooth periodic
part), which evaluates them on a much smaller grid.  The tests check entries
of both against direct quadrature.

For a real map and weight, L commutes with complex conjugation: the
truncation M satisfies M_{-k',-k} = conj M_{k',k} and is real on the basis of
the real modes sqrt 2 cos 2 pi k.x, sqrt 2 sin 2 pi k.x.  Both builds hand
over that real form (real_form), and the eigensolves run on it in real
arithmetic.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla
import scipy.sparse as sparse
from scipy.sparse import _sparsetools

from .determinant import BACKWARD_ERROR_THRESHOLD
from .errors import EigenSolverFailure
from .maps import MapSystem

TWO_PI = 2.0 * math.pi
SQRT_HALF = math.sqrt(0.5)
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
# so a pool of a few workers stays busy to the end; the real form of a CSR
# matrix is taken in row blocks of the same k1 count
BUILD_BLOCK_ROWS = 8


@dataclass(frozen=True)
class TransferMatrix:
    """Truncated collocation matrix over modes k in [-N, N]^2, k1-major.

    With delta None, matrix holds the entries on the basis e_k.  Otherwise
    it is the real form R = Re(U^H M U) of such a matrix M (real_form) and
    delta = ||U^H M U - R||_F is what R leaves out.  matrix is dense
    (ndarray) up to DENSE_DIM_LIMIT modes, scipy CSR above; the factored
    build and the real form of a CSR matrix drop entries of modulus at most
    SPARSE_DROP_TOL, the FFT build keeps them.
    """

    n_freq: int
    matrix: object
    delta: float | None = None

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
    """Real form of the collocation matrix of u -> g (u o T) on modes [-N, N]^2.

    Up to FFT_MAX_DIM modes g e_k(Tx) is sampled on the (GRID_FACTOR (2N+1))^2
    grid and each column FFT-projected; above it the homology decomposition
    T = A x + s(x) gives the identical coefficients on a small grid sized by
    the Bessel tail of exp(2 pi i k.s).  The complex matrix never exists
    whole next to its real form: the FFT build hands its columns over in
    pairs (k, -k), and the factored build's CSR matrix is freed before the
    real rows are joined.  With a pool, the factored build runs its blocks
    of k1 rows there; the matrix is the same bit for bit.
    """
    if sys.linear_part is None or sys.periodic_part is None:
        raise ValueError("collocation requires a torus map with "
                         "linear_part and periodic_part")
    dim = (2 * n_freq + 1) ** 2
    if dim <= FFT_MAX_DIM:
        R, delta = _real_columns(_fft_columns(sys, n_freq), dim)
        return TransferMatrix(n_freq=n_freq, matrix=R, delta=delta)
    M = _factored_csr(sys, n_freq, pool)
    blocks, delta = _real_rows(M, n_freq)
    del M
    R = sparse.vstack(blocks, format="csr")
    del blocks
    if dim <= DENSE_DIM_LIMIT:
        R = R.toarray()
    return TransferMatrix(n_freq=n_freq, matrix=R, delta=delta)


def real_form(tm: TransferMatrix) -> TransferMatrix:
    """The truncation on the real modes, with the part it leaves out.

    Mode 0 keeps its index.  For k > 0 (the indices above dim // 2, whose
    partner -k is at dim - 1 - i) U sends e_k, e_-k to cos at the index of
    k and sin at the index of -k:
      (e_k + e_-k) / sqrt 2 = sqrt 2 cos 2 pi k.x,
      (e_k - e_-k) / (i sqrt 2) = sqrt 2 sin 2 pi k.x.
    R = Re(U^H M U) and delta = ||U^H M U - R||_F, which also counts the
    entries of a CSR R dropped at SPARSE_DROP_TOL.  A matrix already in real
    form is returned as it is.
    """
    if tm.delta is not None:
        return tm
    if sparse.issparse(tm.matrix):
        blocks, delta = _real_rows(tm.matrix.tocsr(), tm.n_freq)
        R = sparse.vstack(blocks, format="csr")
    else:
        R, delta = _real_columns(np.asarray(tm.matrix).T, tm.dim)
    return TransferMatrix(n_freq=tm.n_freq, matrix=R, delta=delta)


def _uh_rows(X):
    """U^H X along axis 0: cos rows above the middle index, sin rows below."""
    c = X.shape[0] // 2
    top, bot = X[c + 1:], X[:c][::-1]
    Y = np.empty(X.shape, dtype=complex)
    Y[c] = X[c]
    Y[c + 1:] = (top + bot) * SQRT_HALF
    Y[:c][::-1] = (top - bot) * (1j * SQRT_HALF)
    return Y


def _real_columns(columns, dim):
    """Dense R (Fortran order) and delta from the columns of M on the e_k
    basis, given in index order: each k < 0 column is held until its k > 0
    partner arrives, and then both become real columns."""
    c = dim // 2
    R = np.empty((dim, dim), order="F")
    held = np.empty((c, dim), dtype=complex)
    sq = 0.0
    for i, col in enumerate(columns):
        if i < c:
            held[i] = col
            continue
        if i == c:
            Y = _uh_rows(col[:, None])
            R[:, c] = Y[:, 0].real
        else:
            low = held[dim - 1 - i]
            Y = _uh_rows(np.stack([(col + low) * SQRT_HALF,
                                   (col - low) * (-1j * SQRT_HALF)], axis=1))
            R[:, i] = Y[:, 0].real
            R[:, dim - 1 - i] = Y[:, 1].real
        sq += float(np.sum(Y.imag ** 2))
    return R, math.sqrt(sq)


def _real_rows(M, N):
    """Row blocks of R = Re(U^H M U) for CSR M, BUILD_BLOCK_ROWS values of
    k1 at a time, without their entries of modulus at most SPARSE_DROP_TOL;
    and delta, which counts those entries and the imaginary parts."""
    dim = M.shape[0]
    c = dim // 2
    up = np.arange(c + 1, dim)
    low = dim - 1 - up
    # U: e_0 -> e_0; cos column k: s (e_k + e_-k); sin column -k: -i s (e_k - e_-k)
    s = SQRT_HALF
    U = sparse.csr_matrix(
        (np.concatenate([[1.0], np.full(up.size, s), np.full(up.size, s),
                         np.full(up.size, -1j * s), np.full(up.size, 1j * s)]),
         (np.concatenate([[c], up, low, up, low]), np.concatenate([[c], up, up, low, low]))),
        shape=(dim, dim), dtype=complex)
    Uh = U.conj().T.tocsr()
    step = BUILD_BLOCK_ROWS * (2 * N + 1)
    blocks = []
    sq = 0.0
    for r0 in range(0, dim, step):
        D = Uh[r0:r0 + step] @ M @ U
        re = D.data.real
        drop = np.abs(re) <= SPARSE_DROP_TOL
        sq += float(np.sum(D.data.imag ** 2)) + float(np.sum(re[drop] ** 2))
        kept = np.concatenate([[0], np.cumsum(~drop)])
        blocks.append(sparse.csr_matrix((re[~drop], D.indices[~drop], kept[D.indptr]),
                                        shape=D.shape))
    return blocks, math.sqrt(sq)


def _fft_columns(sys, N):
    """Columns of the e_k-basis matrix, in index order: per-column FFT of
    g e_k(Tx) on the oversampled grid."""
    G = GRID_FACTOR * (2 * N + 1)
    X1, X2 = _grid(G)
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    T = sys.forward(pts)
    W = np.asarray(sys.weight(pts)).reshape(G, G).astype(complex)
    E1 = np.exp(TWO_PI * 1j * T[:, 0]).reshape(G, G)
    E2 = np.exp(TWO_PI * 1j * T[:, 1]).reshape(G, G)
    # rows/cols of the [-N, N] block in fft2 output
    idx = np.arange(-N, N + 1) % G
    E1_pow = W * E1 ** (-N)
    for k1 in range(-N, N + 1):
        cur = E1_pow * E2 ** (-N)
        for k2 in range(-N, N + 1):
            # fft2 transforms axis 0, then axis 1: axis 1 on the kept rows
            # only gives the same bits
            yield sfft.fft(sfft.fft(cur, axis=0)[idx], axis=1)[:, idx].ravel() / (G * G)
            cur = cur * E2
        E1_pow = E1_pow * E1


def _build_fft(sys, N):
    """The FFT build's e_k-basis matrix, dense."""
    return np.stack(list(_fft_columns(sys, N)), axis=1)


def _bessel_cutoff(z: float) -> int:
    # J_n(z) < 1e-15 beyond roughly z + 8 z^{1/3} + 12
    return int(math.ceil(z + 8.0 * z ** (1.0 / 3.0) + 12.0))


def _build_factored(sys, N, pool=None):
    """The factored build's e_k-basis matrix, dense up to DENSE_DIM_LIMIT
    modes."""
    M = _factored_csr(sys, N, pool)
    return M.toarray() if M.shape[0] <= DENSE_DIM_LIMIT else M


def _factored_csr(sys, N, pool=None):
    """e_k-basis matrix as CSR: the FFT coefficients of g e_k(s(x)) on the
    small grid, shifted by A^tr k."""
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
    return M.tocsr()


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigen_resonances(tm: TransferMatrix, top: int | None = None, seed: int = 0,
                     pool: Executor | None = None):
    """Eigenvalues sorted by modulus, with residual bounds.

    Both routes solve the real form R of tm (real_form) in real arithmetic,
    so each non-real eigenvalue comes with its conjugate bit for bit.  The
    residual of mu is ||R v - mu v|| / ||v|| + delta, a bound on the residual
    of U v against the e_k-basis matrix.  top = None runs the dense
    nonsymmetric eigensolve (dgeev) and returns the whole spectrum (allowed
    up to DENSE_EIG_LIMIT modes); it is the reference route.  top = K runs a
    deterministic seeded subspace iteration (SUBSPACE_ITERS steps) and
    returns the K largest-modulus Ritz values, less the K-th when its
    conjugate is not among them; accuracy is certified by the residuals
    (check_residuals) and by doubled-resolution filtering downstream.  With
    a pool, each product of a CSR matrix runs as two row halves, one there
    and one on this thread; the result is the same bit for bit.
    """
    dim = tm.dim
    if top is None and dim > DENSE_EIG_LIMIT:
        raise EigenSolverFailure(f"dense eigensolve refused at dim {dim}; pass top=K")
    tm = real_form(tm)
    if top is None:
        R = tm.toarray()
        w, W = _real_eig(R)
        res = _residual_norms(w, W, R @ W)
        order = np.argsort(-np.abs(w), kind="stable")
        return w[order], res[order] + tm.delta

    R = tm.matrix
    if pool is not None and sparse.issparse(R):
        product = _split_product(R, pool)
    else:
        product = R.__matmul__
    rng = np.random.default_rng(seed)
    b = min(dim, top + 16)
    Q = sla.qr(rng.standard_normal((dim, b)), mode="economic")[0]
    for _ in range(SUBSPACE_ITERS):
        Z = product(Q)
        # only the product is live while it is factored
        del Q
        Q = sla.qr(Z, mode="economic")[0]
        del Z
    w, S = _real_eig(Q.T @ product(Q))
    W = Q @ S
    del Q
    res = _residual_norms(w, W, product(W))
    order = np.argsort(-np.abs(w), kind="stable")[:top]
    # a conjugate pair is kept whole or not at all
    partner = np.arange(w.size) + np.sign(w.imag).astype(int)
    kept = np.zeros(w.size, dtype=bool)
    kept[order] = True
    order = order[kept[partner[order]]]
    return w[order], res[order] + tm.delta


def _real_eig(A):
    """Eigenvalues w of the real matrix A and its real eigenvector matrix
    (dgeev): a conjugate pair w_j = conj w_{j+1}, Im w_j > 0, has the
    eigenvectors W_j + i W_{j+1} and W_j - i W_{j+1}."""
    geev, geev_lwork = sla.get_lapack_funcs(("geev", "geev_lwork"), (A,))
    lwork, info = geev_lwork(A.shape[0], compute_vl=0)
    if info == 0:
        wr, wi, _, W, info = geev(A, compute_vl=0, lwork=int(lwork))
    if info != 0:
        raise EigenSolverFailure(f"dgeev failed with info {info}")
    w = wr.astype(complex)
    w.imag = wi
    return w, W


def _residual_norms(w, W, Y):
    """||A v - mu v|| / ||v|| for the eigenpairs (w, W) of _real_eig, given
    Y = A W: for a pair with v = x + i y and mu = a + i b the residual is
    (A x - a x + b y) + i (A y - a y - b x), the same for both members."""
    E = Y - W * w.real
    j = np.flatnonzero(w.imag > 0)
    E[:, j] += W[:, j + 1] * w.imag[j]
    E[:, j + 1] -= W[:, j] * w.imag[j]
    num = np.linalg.norm(E, axis=0)
    den = np.linalg.norm(W, axis=0)
    for a in (num, den):
        a[j] = a[j + 1] = np.hypot(a[j], a[j + 1])
    return num / np.maximum(den, 1e-300)


def _split_product(M, pool):
    """X -> M @ X for real CSR M, its rows in two halves of about equal nnz:
    the first on the pool, the second on this thread.

    Both halves run scipy's CSR kernel on M's own arrays and write into one
    output, as M @ X does for all rows; each row is summed in the same
    order, so the result has the same bits.  (The halves as matrices of
    their own, multiplied with @, would each allocate a result, and stacking
    them a third array.)
    """
    n = M.shape[0]
    h = int(np.searchsorted(M.indptr, M.nnz // 2))

    def rows(start, stop, X, Z):
        _sparsetools.csr_matvecs(stop - start, M.shape[1], X.shape[1],
                                 M.indptr[start:stop + 1], M.indices, M.data,
                                 X.ravel(), Z[start:stop].ravel())

    def product(X):
        X = np.ascontiguousarray(X, dtype=float)
        Z = np.zeros((n, X.shape[1]))
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
