"""Fourier collocation of the transfer operator on torus maps.

The operator L u = g (u o T) is discretized on the modes k in [-N, N]^2.
The mode count picks one of two builds: up to FFT_MAX_DIM modes, the
per-column FFT of g e_k(T x) sampled on an oversampled grid; above it, the
closed form that the Jacobi-Anger expansion gives for maps
T x = A x + eps (sin 2 pi a.x, sin 2 pi b.x), where the weight enters as a
convolution with the Fourier coefficients the map declares
(MapSystem.weight_hat).  A weight without declared coefficients is refused
at every size.  The tests check entries of both builds against direct
quadrature.

For a real map and weight, L commutes with complex conjugation: the
truncation M satisfies M_{-k',-k} = conj M_{k',k} and is real on the basis of
the real modes sqrt 2 cos 2 pi k.x, sqrt 2 sin 2 pi k.x.  Both builds hand
over only that real form R, and the eigensolves run on it in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.special as special

from .determinant import BACKWARD_ERROR_THRESHOLD
from .errors import EigenSolverFailure
from .maps import MapSystem

TWO_PI = 2.0 * math.pi
SQRT_HALF = math.sqrt(0.5)
DENSE_EIG_LIMIT = 2600
SPARSE_DROP_TOL = 1e-13
SUBSPACE_ITERS = 24
RITZ_RESIDUAL_TOL = 1e-8
STABILITY_RTOL = 1e-6
# the FFT build samples on a (GRID_FACTOR (2N+1))^2 grid, the anti-aliasing
# minimum; above FFT_MAX_DIM modes the closed form takes over
GRID_FACTOR = 4
FFT_MAX_DIM = 2000
# the closed form leaves out the terms with |J_n| below BESSEL_FLOOR; past
# the cut they fall faster than geometrically, so an entry moves by a few
# times BESSEL_FLOOR times sum_j |g^_j|, under the roundoff of a unit entry
BESSEL_FLOOR = 1e-17


@dataclass(frozen=True)
class TransferMatrix:
    """Real form R = Re(U^H M U) of the truncation M on modes k in [-N, N]^2,
    k1-major, and delta = ||U^H M U - R||_F, what R leaves out.

    For k > 0 at index j > dim // 2 (-k is at dim - 1 - j), U sends e_k, e_-k
    to (e_k + e_-k) / sqrt 2 = sqrt 2 cos 2 pi k.x at j and to
    (e_k - e_-k) / (i sqrt 2) = sqrt 2 sin 2 pi k.x at dim - 1 - j; e_0 stays.
    matrix is dense from the FFT build, up to FFT_MAX_DIM modes, and CSR from
    the closed form above, which drops the entries of modulus at most
    SPARSE_DROP_TOL and counts them in delta.
    """

    n_freq: int
    matrix: object
    delta: float

    @property
    def dim(self) -> int:
        return (2 * self.n_freq + 1) ** 2

    def toarray(self) -> np.ndarray:
        if isinstance(self.matrix, np.ndarray):
            return self.matrix
        return self.matrix.toarray()


def build_transfer_matrix(sys: MapSystem, n_freq: int) -> TransferMatrix:
    """Real form of the collocation matrix of u -> g (u o T) on modes [-N, N]^2.

    Up to FFT_MAX_DIM modes g e_k(Tx) is sampled on the (GRID_FACTOR (2N+1))^2
    grid and each column FFT-projected, and R is dense; above it the
    Jacobi-Anger closed form of T = A x + eps (sin 2 pi a.x, sin 2 pi b.x)
    with the declared coefficients of g gives the same coefficients, and R
    is CSR.  The complex matrix never exists whole: both builds hand their
    columns over in pairs (k, -k), the closed form as pairs of k1 blocks.
    """
    if sys.linear_part is None or sys.perturbation is None or sys.weight_hat is None:
        raise ValueError("collocation requires a torus map with linear_part and "
                         "perturbation, and a weight with declared Fourier "
                         "coefficients (weight_hat)")
    dim = (2 * n_freq + 1) ** 2
    if dim <= FFT_MAX_DIM:
        R, delta = _real_columns(_fft_blocks(sys, n_freq), n_freq)
    else:
        R, delta = _real_pairs(_closed_form_blocks(sys, n_freq, _pair_order(n_freq)), n_freq)
    return TransferMatrix(n_freq=n_freq, matrix=R, delta=delta)


def _uh_rows(X):
    """U^H X along axis 0: cos rows above the middle index, sin rows below."""
    c = X.shape[0] // 2
    top, bot = X[c + 1:], X[:c][::-1]
    Y = np.empty(X.shape, dtype=complex)
    Y[c] = X[c]
    Y[c + 1:] = (top + bot) * SQRT_HALF
    Y[:c][::-1] = (top - bot) * (1j * SQRT_HALF)
    return Y


def _real_columns(blocks, N):
    """Dense R (Fortran order) and delta from the columns of M on the e_k
    basis, given as (2N + 1, dim) k1 blocks in _pair_order: the columns k and
    -k lie in the blocks of k1 and -k1, so only the block of -k1 is held
    while the block of k1 arrives.  delta sums the columns in index order."""
    side = 2 * N + 1
    dim = side * side
    c = dim // 2
    R = np.empty((dim, dim), order="F")
    blocks = iter(blocks)
    sq = 0.0
    for k1 in range(N + 1):
        low = next(blocks)
        high = next(blocks) if k1 else low
        for j in range(side):
            i = (N + k1) * side + j
            if i < c:
                continue
            col = high[j]
            if i == c:
                Y = _uh_rows(col[:, None])
                R[:, c] = Y[:, 0].real
            else:
                # the column of -k: index dim - 1 - i, row side - 1 - j of low
                lo = low[side - 1 - j]
                Y = _uh_rows(np.stack([(col + lo) * SQRT_HALF,
                                       (col - lo) * (-1j * SQRT_HALF)], axis=1))
                R[:, i] = Y[:, 0].real
                R[:, dim - 1 - i] = Y[:, 1].real
            sq += float(np.sum(Y.imag ** 2))
    return R, math.sqrt(sq)


def _pair_order(N):
    """The k1 blocks (index k1 + N) in the order 0, -1, 1, -2, 2, ..., N:
    the modes k and -k lie in the blocks of k1 and -k1."""
    return [N] + [N + s * k1 for k1 in range(1, N + 1) for s in (-1, 1)]


def _real_pairs(blocks, N):
    """R = Re(U^H M U) as CSR and delta, from the columns of M as (rows,
    values, counts, dropped) of each k1 block in _pair_order, dropped the sum
    of the squared moduli of the entries the block left out.  U mixes the
    columns k and -k only, so with S the indices of the blocks of k1 and -k1,
    R[:, S]^tr = Re(U[S, S]^tr M[:, S]^tr conj U).  Entries of modulus at
    most SPARSE_DROP_TOL are left out; delta counts them, the imaginary parts
    and the dropped entries of M, which U, unitary, carries over unchanged
    in the Frobenius norm."""
    side = 2 * N + 1
    dim = side * side
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
    Ubar = U.conj()
    blocks = iter(blocks)
    Rt = [None] * side
    sq = 0.0
    for k1 in range(N + 1):
        ks = [N] if k1 == 0 else [N - k1, N + k1]
        rows, vals, counts, dropped = zip(*(next(blocks) for _ in ks))
        rows, vals, counts = (np.concatenate(x) for x in (rows, vals, counts))
        S = np.concatenate([np.arange(i * side, (i + 1) * side) for i in ks])
        MSt = sparse.csc_matrix((vals, rows, np.concatenate([[0], np.cumsum(counts)])),
                                shape=(dim, S.size)).T
        D = (U[S][:, S].T @ MSt @ Ubar).tocsr()
        re = D.data.real
        drop = np.abs(re) <= SPARSE_DROP_TOL
        sq += float(np.sum(D.data.imag ** 2)) + float(np.sum(re[drop] ** 2)) + sum(dropped)
        kept = np.concatenate([[0], np.cumsum(~drop)])
        D = sparse.csr_matrix((re[~drop], D.indices[~drop], kept[D.indptr]), shape=D.shape)
        for j, i in enumerate(ks):
            Rt[i] = D[j * side:(j + 1) * side]
    Rt = sparse.vstack(Rt, format="csr")
    return Rt.T.tocsr(), math.sqrt(sq)


def _fft_blocks(sys, N):
    """The e_k-basis columns of each k1 block (index k1 + N) in _pair_order,
    as (2N + 1, dim) arrays: per-column FFT of g e_k(Tx) on the oversampled
    grid.  The grid W E1^k1 runs on from k1 = 0; the grid of -k1 is taken
    again from W E1^-N by the same chain of products, so every column has the
    bits of the index-order build."""
    G = GRID_FACTOR * (2 * N + 1)
    t = np.arange(G) / G
    X1, X2 = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    T = sys.forward(pts)
    W = np.asarray(sys.weight(pts)).reshape(G, G).astype(complex)
    E1 = np.exp(TWO_PI * 1j * T[:, 0]).reshape(G, G)
    E2 = np.exp(TWO_PI * 1j * T[:, 1]).reshape(G, G)
    # rows/cols of the [-N, N] block in fft2 output
    idx = np.arange(-N, N + 1) % G

    def block(E1_pow):
        out = np.empty((2 * N + 1, (2 * N + 1) ** 2), dtype=complex)
        cur = E1_pow * E2 ** (-N)
        for k2 in range(2 * N + 1):
            # fft2 transforms axis 0, then axis 1: axis 1 on the kept rows
            # only gives the same bits
            out[k2] = sfft.fft(sfft.fft(cur, axis=0)[idx], axis=1)[:, idx].ravel() / (G * G)
            cur = cur * E2
        return out

    first = W * E1 ** (-N)
    E1_pow = first
    for _ in range(N):
        E1_pow = E1_pow * E1
    yield block(E1_pow)
    for k1 in range(1, N + 1):
        neg = first
        for _ in range(N - k1):
            neg = neg * E1
        yield block(neg)
        E1_pow = E1_pow * E1
        yield block(E1_pow)


def _bessel_table(z):
    """J_n(z_i) for |n| < h as rows (i) by columns (n + h), each row cut to
    zero past its last |n| with |J_n(z_i)| >= BESSEL_FLOOR; also the cuts.
    h is the first n with (max |z| / 2)^n / n! < BESSEL_FLOOR, which bounds
    |J_n(z)| from n on (DLMF 10.14.4)."""
    z_max = float(np.abs(z).max())
    h, bound = 1, z_max / 2.0
    while bound >= BESSEL_FLOOR:
        h += 1
        bound *= z_max / (2.0 * h)
    n = np.arange(1 - h, h)
    J = special.jv(n, z[:, None])
    cut = np.max(np.where(np.abs(J) >= BESSEL_FLOOR, np.abs(n), 0), axis=1)
    J[np.abs(n) > cut[:, None]] = 0.0
    return J, cut


def _closed_form_blocks(sys, N, order):
    """Rows, values and per-column counts of the e_k-basis columns of each
    k1 block (index k1 + N) in order, from the Jacobi-Anger expansion: for
    T x = A x + eps (sin 2 pi a.x, sin 2 pi b.x),
      e_k(T x) = sum_{n, m} J_n(2 pi eps k1) J_m(2 pi eps k2) e_{A^tr k + n a + m b}(x),
    and the weight g = sum_j g^_j e_j of sys.weight_hat multiplies by
    g^_j e_j term by term, so column k holds g^_j J_n J_m at the rows
    A^tr k + j + n a + m b.  Sorted by their offset j + n a + m b once, the
    terms (j, n, m) give every column's rows in order; terms that meet at one
    row (a = b, or several g^_j) are adjacent and summed in the sorted order.
    Each column comes without entries of modulus at most SPARSE_DROP_TOL;
    each block also gives the sum of their squared moduli.
    """
    eps, a, b = sys.perturbation
    a, b = np.array(a), np.array(b)
    side = 2 * N + 1
    ks = np.arange(-N, N + 1)
    J, cut = _bessel_table(TWO_PI * eps * ks)
    h = J.shape[1] // 2
    # A^tr k of every column, as C[:, k1 + N, k2 + N]
    C = np.einsum("ji,jkl->ikl", sys.linear_part, np.meshgrid(ks, ks, indexing="ij"))
    jj = np.array(sys.weight_hat[0], dtype=np.int64).reshape(-1, 2)
    gv = np.array(sys.weight_hat[1], dtype=complex)
    tj, tn, tm = (t.ravel() for t in np.meshgrid(np.arange(gv.size), np.arange(-h, h + 1),
                                                np.arange(-h, h + 1), indexing="ij"))
    o1 = jj[tj, 0] + tn * a[0] + tm * b[0]
    o2 = jj[tj, 1] + tn * a[1] + tm * b[1]
    span = int(np.abs(o2).max(initial=0)) + 1
    perm = np.argsort(o1 * (2 * span + 1) + o2, kind="stable")
    tj, tn, tm, o1, o2 = tj[perm], tn[perm], tm[perm], o1[perm], o2[perm]
    merge = bool(np.any((np.diff(o1) == 0) & (np.diff(o2) == 0)))
    for i in order:
        t = np.abs(tn) <= cut[i]
        Jm = J[:, tm[t] + h]
        r1 = C[0, i][:, None] + o1[t]
        r2 = C[1, i][:, None] + o2[t]
        keep = (Jm != 0) & (np.abs(r1) <= N) & (np.abs(r2) <= N)
        col, term = np.nonzero(keep)
        rows = ((r1[keep] + N) * side + (r2[keep] + N)).astype(np.int32)
        vals = (gv[tj[t]] * J[i, tn[t] + h])[term] * Jm[keep]
        if merge:
            first = np.flatnonzero(np.concatenate([[True], (np.diff(rows) != 0)
                                                   | (np.diff(col) != 0)]))
            vals = np.add.reduceat(vals, first)
            rows, col = rows[first], col[first]
        big = np.abs(vals) > SPARSE_DROP_TOL
        small = vals[~big]
        yield (rows[big], vals[big], np.bincount(col[big], minlength=side),
               float(np.sum(small.real ** 2 + small.imag ** 2)))


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigen_resonances(tm: TransferMatrix, top: int | None = None, seed: int = 0):
    """Eigenvalues sorted by modulus, with residual bounds.

    Both routes solve tm's real form R in real arithmetic, so each non-real
    eigenvalue comes with its conjugate bit for bit.  The residual of mu is
    ||R v - mu v|| / ||v|| + delta, a bound on the residual of U v against
    the e_k-basis matrix.  top = None runs the dense nonsymmetric eigensolve
    (dgeev) and returns the whole spectrum (allowed up to DENSE_EIG_LIMIT
    modes); it is the reference route.  top = K runs a deterministic seeded
    subspace iteration (SUBSPACE_ITERS steps) and returns the K
    largest-modulus Ritz values, less the K-th when its conjugate is not
    among them; accuracy is certified by the residuals (check_residuals) and
    by doubled-resolution filtering downstream.
    """
    dim = tm.dim
    if top is None and dim > DENSE_EIG_LIMIT:
        raise EigenSolverFailure(f"dense eigensolve refused at dim {dim}; pass top=K")
    if top is None:
        R = tm.toarray()
        w, W = _real_eig(R)
        res = _residual_norms(w, W, R @ W)
        order = np.argsort(-np.abs(w), kind="stable")
        return w[order], res[order] + tm.delta

    R = tm.matrix
    rng = np.random.default_rng(seed)
    b = min(dim, top + 16)
    Q = sla.qr(rng.standard_normal((dim, b)), mode="economic")[0]
    for _ in range(SUBSPACE_ITERS):
        Z = R @ Q
        # only the product is live while it is factored
        del Q
        Q = sla.qr(Z, mode="economic")[0]
        del Z
    w, S = _real_eig(Q.T @ (R @ Q))
    W = Q @ S
    del Q
    res = _residual_norms(w, W, R @ W)
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
    needs a zero.  Multiplicities are compared through cluster sizes: a
    pair whose zero multiplicity differs from its eigenvalue cluster size
    fails the match.
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
        "pass": (not unmatched_zeros and not unmatched_eigs
                 and all(p["multiplicity_zero"] == p["multiplicity_eig"] for p in pairs)),
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
