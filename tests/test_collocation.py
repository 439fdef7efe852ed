import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.sparse as sp

from hypdet import cli
from hypdet import collocation as coll
from hypdet import maps
from hypdet.errors import EigenSolverFailure


def mode_index(k, N):
    """Row/column of mode k in the [-N, N]^2 truncation, k1-major."""
    k1, k2 = int(k[0]), int(k[1])
    assert abs(k1) <= N and abs(k2) <= N
    return (k1 + N) * (2 * N + 1) + (k2 + N)


def entry(M, N, kprime, k):
    return complex(M[mode_index(kprime, N), mode_index(k, N)])


def direct_entry(sys_, kprime, k, n_freq, refine=2):
    """The (k', k) entry by a trapezoid sum of g e_k(Tx) e_{-k'}(x) on a grid
    refine times finer than the FFT build grid: the quadrature oracle."""
    G = refine * coll.GRID_FACTOR * (2 * n_freq + 1)
    t = np.arange(G) / G
    X1, X2 = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    T = sys_.forward(pts)
    w = np.asarray(sys_.weight(pts))
    phase = 2 * np.pi * (k[0] * T[:, 0] + k[1] * T[:, 1]
                         - kprime[0] * pts[:, 0] - kprime[1] * pts[:, 1])
    return complex(np.sum(w * np.exp(1j * phase)) / (G * G))


def fft_matrix(sys_, N):
    """The FFT build's e_k-basis matrix, dense."""
    side = 2 * N + 1
    M = np.empty((side * side, side * side), dtype=complex)
    for i, block in zip(coll._pair_order(N), coll._fft_blocks(sys_, N)):
        M[:, i * side:(i + 1) * side] = block.T
    return M


def closed_form_csr(sys_, N):
    """The closed form's e_k-basis matrix as CSR."""
    side = 2 * N + 1
    rows, vals, counts, _ = zip(*coll._closed_form_blocks(sys_, N, range(side)))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                         shape=(side * side, side * side)).tocsr()


def spot_check(sys_, M, N, n_entries, seed):
    """Max |entry - direct_entry| over random (k', k) pairs of the e_k-basis
    matrix M."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_entries):
        k = rng.integers(-N, N + 1, size=2)
        kp = rng.integers(-N, N + 1, size=2)
        worst = max(worst, abs(entry(M, N, kp, k) - direct_entry(sys_, kp, k, N)))
    return worst


def real_tm(M):
    """The real form of the dense e_k-basis matrix M, taken densely:
    R = Re(U^H M U) with delta = ||Im(U^H M U)||_F."""
    N = (math.isqrt(M.shape[0]) - 1) // 2
    U = real_modes(M.shape[0]).toarray()
    D = U.conj().T @ M @ U
    return coll.TransferMatrix(n_freq=N, matrix=np.ascontiguousarray(D.real),
                               delta=float(np.linalg.norm(D.imag)))


def column_blocks(M, N, dropped=None):
    """(rows, values, counts, dropped) of the columns of each k1 block of the
    sparse e_k-basis matrix M, in _pair_order: the input of _real_pairs.
    dropped, in the same order, defaults to nothing left out of M."""
    M = M.tocsc()
    side = 2 * N + 1
    dropped = [0.0] * side if dropped is None else dropped
    for i, d in zip(coll._pair_order(N), dropped):
        lo, hi = M.indptr[i * side], M.indptr[(i + 1) * side]
        yield (M.indices[lo:hi], M.data[lo:hi],
               np.diff(M.indptr[i * side:(i + 1) * side + 1]), d)


def test_cat_column_structure(cat):
    N = 8
    tm = coll.build_transfer_matrix(cat, N)
    M = tm.toarray()
    A_tr = maps.CAT_A_INT.T
    for k in ((0, 0), (1, 2), (-3, 1), (2, -2)):
        col = M[:, mode_index(k, N)]
        kp = A_tr @ np.asarray(k)
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if np.max(np.abs(kp)) > N:
            assert nz.size == 0  # image mode dropped by the truncation
        else:
            assert nz.size == 1
            assert nz[0] == mode_index(kp, N)
            assert abs(abs(col[nz[0]]) - 1.0) <= 1e-12


def test_cat_column_sparsity_invariant(cat):
    tm = coll.build_transfer_matrix(cat, 6)
    M = tm.toarray()
    counts = (np.abs(M) > 1e-12).sum(axis=0)
    assert np.all(counts <= 1)
    vals = np.abs(M[np.abs(M) > 1e-12])
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_constant_mode_fixed(cat):
    tm = coll.build_transfer_matrix(cat, 4)
    col = tm.toarray()[:, mode_index((0, 0), 4)]
    expected = np.zeros_like(col)
    expected[mode_index((0, 0), 4)] = 1.0
    assert np.max(np.abs(col - expected)) < 1e-12


def test_character_weight_shifts_column(cat):
    e1 = cat.with_weight(
        lambda x: np.exp(2j * np.pi * x[:, 0]), tag="e1")
    N = 6
    # a complex weight breaks the conjugation symmetry, so this reads the
    # e_k-basis matrix of the build, not its real form
    M = fft_matrix(e1, N)
    k = np.array([1, 1])
    kp = maps.CAT_A_INT.T @ k + np.array([1, 0])
    col = M[:, mode_index(k, N)]
    nz = np.flatnonzero(np.abs(col) > 1e-12)
    assert nz.tolist() == [mode_index(kp, N)]


def test_spot_check_both_methods(pcat):
    fft = fft_matrix(pcat, 10)
    assert spot_check(pcat, fft, 10, n_entries=6, seed=0) < 1e-10
    fac = closed_form_csr(pcat, 10).toarray()
    assert spot_check(pcat, fac, 10, n_entries=6, seed=0) < 1e-10
    assert np.max(np.abs(fft - fac)) < 1e-12


def test_large_truncation_needs_decomposition(pcat, chart):
    # 47^2 = 2209 modes are above FFT_MAX_DIM, 9^2 below: both sizes refuse a
    # map without the torus decomposition or the weight's coefficients, and
    # the chart model has neither
    bare = dataclasses.replace(pcat, perturbation=None)
    undeclared = pcat.with_weight(pcat.weight)
    for sys_, n_freq in ((bare, 23), (bare, 4), (undeclared, 23), (undeclared, 4),
                         (chart[0], 4)):
        with pytest.raises(ValueError, match="linear_part and perturbation"):
            coll.build_transfer_matrix(sys_, n_freq)


def test_weight_scaling_scales_spectrum(pcat):
    c = 0.5
    scaled = pcat.with_weight(
        lambda x: np.full(x.shape[0], c), (((0, 0),), (c,)), tag="half")
    tm1 = coll.build_transfer_matrix(pcat, 8)
    tm2 = coll.build_transfer_matrix(scaled, 8)
    assert np.max(np.abs(tm2.toarray() - c * tm1.toarray())) < 1e-12
    w1, _ = coll.eigen_resonances(tm1)
    w2, _ = coll.eigen_resonances(tm2)
    assert abs(w2[0] - c * w1[0]) < 1e-9


def test_eigen_diag_matrix():
    # d_{-k} = conj d_k, the symmetry of a real operator: the real modes
    # turn each pair (k, -k) into a real 2 x 2 block
    d = np.array([0.5, 1j, 2.0, 3.0 + 1j, 4.0, 3.0 - 1j, 2.0, -1j, 0.5])
    tm = real_tm(np.diag(d))
    assert tm.delta < 1e-15
    got, res = coll.eigen_resonances(tm)
    assert np.allclose(np.abs(got), np.sort(np.abs(d))[::-1])
    assert np.allclose(np.sort_complex(got), np.sort_complex(d))
    assert np.max(res) < 1e-12


def test_eigen_cat_stable_spectrum(cat):
    tm1 = coll.build_transfer_matrix(cat, 6)
    tm2 = coll.build_transfer_matrix(cat, 12)
    w1, _ = coll.eigen_resonances(tm1)
    w2, _ = coll.eigen_resonances(tm2)
    stable = w1[coll.stability_filter(w1, w2)[:, 0]]
    assert abs(stable[0] - 1.0) < 1e-12
    assert np.all(np.abs(stable[1:]) <= 1e-8)


def test_eigen_dense_refused_at_large_dim():
    big = coll.TransferMatrix(n_freq=40, matrix=None, delta=0.0)
    with pytest.raises(EigenSolverFailure):
        coll.eigen_resonances(big)


def test_subspace_matches_dense(pcat):
    tm = real_tm(closed_form_csr(pcat, 10).toarray())
    wd, _ = coll.eigen_resonances(tm)
    wt, rt = coll.eigen_resonances(tm, top=8, seed=0)
    assert abs(wt[0] - wd[0]) < 1e-10
    assert rt[0] < 1e-8


@pytest.mark.parametrize("N", [8, 10, 12])
def test_subspace_both_sides_matches_dense_reference(pcat, N):
    tm1 = coll.build_transfer_matrix(pcat, N)
    tm2 = coll.build_transfer_matrix(pcat, 2 * N)
    w2, _ = coll.eigen_resonances(tm2, top=48, seed=7)
    wd = coll.eigen_resonances(tm1)[0]
    ws = coll.eigen_resonances(tm1, top=48, seed=7)[0]
    dense = wd[coll.stability_filter(wd, w2)[:, 0]]
    sub = ws[coll.stability_filter(ws, w2)[:, 0]]
    assert len(sub) == len(dense) >= 1
    assert np.max(np.abs(sub - dense)) < 1e-10


def test_stability_filter_index_pairs():
    a = np.array([1.0, 0.5, 0.25 + 0j])
    b = np.array([0.7, 0.25 + 1e-9, 1.0 + 1e-12])
    assert coll.stability_filter(a, b).tolist() == [[0, 2], [2, 1]]
    assert coll.stability_filter(a, b * 1j).shape == (0, 2)


def test_check_residuals():
    coll.check_residuals(np.array([1.0, 1e-3]), np.array([1e-15, 9e-9]))
    coll.check_residuals(np.array([10.0]), np.array([5e-8]))  # relative above 1
    with pytest.raises(EigenSolverFailure):
        coll.check_residuals(np.array([1.0, 1e-3]), np.array([1e-15, 2e-8]))


def test_stability_filter_edge_cases():
    a = np.array([1.0, 0.5, 0.25])
    assert np.allclose(a[coll.stability_filter(a, a.copy())[:, 0]], a)
    b = np.array([2.0, 3.0])
    assert coll.stability_filter(np.array([1.0 + 0j]), b * 1j).size == 0


def test_match_cat(cat):
    tm1 = coll.build_transfer_matrix(cat, 6)
    tm2 = coll.build_transfer_matrix(cat, 12)
    w1 = coll.eigen_resonances(tm1)[0]
    stable = w1[coll.stability_filter(w1, coll.eigen_resonances(tm2)[0])[:, 0]]
    zeros = [{"zero": 1.0 + 0j, "multiplicity": 1, "backward_error": 1e-16}]
    rep = coll.match_resonances_to_zeros(stable, zeros, radius=2.0, tol=1e-6)
    assert rep["pass"]
    assert len(rep["pairs"]) == 1
    assert abs(rep["pairs"][0]["eigenvalue"] - 1.0) < 1e-10


def test_match_vacuous():
    rep = coll.match_resonances_to_zeros(np.array([]), [], radius=1.5)
    assert rep["pass"] and not rep["pairs"]


def test_match_unmatched_zero_detected():
    zeros = [{"zero": 0.9 + 0j, "multiplicity": 1, "backward_error": 0.0}]
    rep = coll.match_resonances_to_zeros(np.array([1.0 + 0j]), zeros,
                                         radius=1.5, tol=1e-4)
    assert not rep["pass"]
    assert len(rep["unmatched_zeros"]) == 1


@pytest.mark.parametrize("eigs", [[0.5], [0.5, 0.5 + 1e-6], [0.5, 0.5 + 1e-6, 0.5 - 1e-6]])
def test_match_compares_multiplicity(eigs):
    # a double zero at 2 passes against a cluster of two eigenvalues and fails
    # against one eigenvalue and against a cluster of three
    zeros = [{"zero": 2.0 + 0j, "multiplicity": 2, "backward_error": 0.0}]
    rep = coll.match_resonances_to_zeros(np.array(eigs, dtype=complex), zeros,
                                         radius=3.0, tol=1e-4)
    assert len(rep["pairs"]) == 1 and not rep["unmatched_eigenvalues"]
    assert rep["pairs"][0]["multiplicity_eig"] == len(eigs)
    assert rep["pass"] == (len(eigs) == 2)


def test_sparse_representation_large():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pc = maps.builtin_perturbed_cat(0.01)
        tm = coll.build_transfer_matrix(pc, 36)
    assert sp.issparse(tm.matrix)
    # k and k' are both above mode 0, so their indices hold cos modes, and
    # the entry is Re of half the sum of the e_k entries at (+-k', +-k)
    k = np.array([3, -5])
    kp = maps.CAT_A_INT.T @ k
    assert mode_index(k, 36) > tm.dim // 2 and mode_index(kp, 36) > tm.dim // 2
    direct = sum(direct_entry(pc, a * kp, b * k, 36, refine=1)
                 for a in (1, -1) for b in (1, -1)).real / 2
    assert abs(entry(tm.matrix, 36, kp, k) - direct) < 1e-10


# ---------------------------------------------------------------------------
# the builds against full-grid FFT references
# ---------------------------------------------------------------------------


def full_grid_factored(sys_, N):
    """The FFT-based factored build: every column g e_k(s(x)), with
    s(x) = T x - A x, transformed on a small grid that resolves e_k(s(x))
    for every column, and masked to the truncation afterwards, in one piece,
    as CSR."""
    A = np.asarray(sys_.linear_part, dtype=np.int64)
    eps, a, b = sys_.perturbation

    def s_of(pts):
        return eps * np.sin(2 * np.pi * (pts @ np.array([a, b], dtype=float).T))

    t = np.arange(64) / 64
    P1, P2 = np.meshgrid(t, t, indexing="ij")
    s_vals = s_of(np.stack([P1.ravel(), P2.ravel()], axis=-1))
    s_sup = float(np.max(np.abs(s_vals), axis=0).sum())
    # J_n(z) < 1e-15 beyond roughly z + 8 z^{1/3} + 12
    z = coll.TWO_PI * N * s_sup
    d_cut = math.ceil(z + 8.0 * z ** (1.0 / 3.0) + 12.0)
    Gs = sfft.next_fast_len(max(4 * d_cut + 4, 32), real=False)
    t = np.arange(Gs) / Gs
    X1, X2 = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    S = s_of(pts)
    W = np.asarray(sys_.weight(pts)).reshape(Gs, Gs).astype(complex)
    E1 = np.exp(coll.TWO_PI * 1j * S[:, 0]).reshape(Gs, Gs)
    E2 = np.exp(coll.TWO_PI * 1j * S[:, 1]).reshape(Gs, Gs)
    dvals = np.concatenate([np.arange(0, Gs // 2), np.arange(-Gs // 2, 0)])
    D1, D2 = (D.ravel() for D in np.meshgrid(dvals, dvals, indexing="ij"))
    side = 2 * N + 1
    rows_b, vals_b, counts = [], [], []
    E1_pow = W * E1 ** (-N)
    for k1 in range(-N, N + 1):
        cur = E1_pow * E2 ** (-N)
        for k2 in range(-N, N + 1):
            coeffs = (sfft.fft2(cur) / (Gs * Gs)).ravel()
            keep = np.abs(coeffs) > coll.SPARSE_DROP_TOL
            kp1 = A[0, 0] * k1 + A[1, 0] * k2 + D1[keep]
            kp2 = A[0, 1] * k1 + A[1, 1] * k2 + D2[keep]
            inside = (np.abs(kp1) <= N) & (np.abs(kp2) <= N)
            rows_b.append((kp1[inside] + N) * side + (kp2[inside] + N))
            vals_b.append(coeffs[keep][inside])
            counts.append(rows_b[-1].size)
            cur = cur * E2
        E1_pow = E1_pow * E1
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csc_matrix((np.concatenate(vals_b), np.concatenate(rows_b), indptr),
                         shape=(side * side, side * side)).tocsr()


def assert_same_bits(got, ref):
    assert sp.issparse(got) == sp.issparse(ref)
    if sp.issparse(ref):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    else:
        assert got.flags.c_contiguous and np.array_equal(got, ref)


def assert_same_entries(got, ref):
    """Every entry both CSR matrices keep agrees to 1e-15; every entry only
    one of them keeps lies within 1e-15 of SPARSE_DROP_TOL, where the two
    roundoffs may fall on either side of the drop rule."""
    both = (abs(got) > 0).multiply(abs(ref) > 0)
    assert both.nnz > 0
    assert abs((got - ref).multiply(both)).max() <= 1e-15
    for one, other in ((got, ref), (ref, got)):
        only = abs(one) - abs(one).multiply(abs(other) > 0)
        if only.nnz:
            assert np.abs(only.data - coll.SPARSE_DROP_TOL).max() <= 1e-15


@pytest.mark.parametrize("N", [24, 40])
@pytest.mark.parametrize("map_seed", [0, 3, 10])
def test_closed_form_is_the_full_grid_build(N, map_seed):
    sys_ = maps.builtin_perturbed_cat(0.01, seed=map_seed)
    if map_seed == 10:
        # draws (1, -1) twice, so several (n, m) meet at one row
        assert sys_.perturbation[1] == sys_.perturbation[2] == (1, -1)
    assert_same_entries(closed_form_csr(sys_, N), full_grid_factored(sys_, N))


def test_closed_form_of_the_cat_map_is_the_permutation(cat):
    # eps = 0: column k holds a single 1 at A^tr k when that lies in [-N, N]^2
    N = 23
    M = closed_form_csr(cat, N).tocsc()
    A_tr = maps.CAT_A_INT.T
    for k1 in range(-N, N + 1):
        for k2 in range(-N, N + 1):
            col = M[:, mode_index((k1, k2), N)]
            kp = A_tr @ np.array([k1, k2])
            if np.max(np.abs(kp)) > N:
                assert col.nnz == 0
            else:
                assert col.indices.tolist() == [mode_index(kp, N)]
                assert col.data.tolist() == [1.0]


@pytest.mark.parametrize("weight_id", ["constant", "expression"])
def test_closed_form_weights_above_fft_max_dim(weight_id):
    N = 23
    assert (2 * N + 1) ** 2 > coll.FFT_MAX_DIM
    spec = {"constant": {"id": "constant", "value": 0.7},
            "expression": {"id": "expression",
                           "terms": {"one": 1.0, "sin1": 0.3, "sin2": 0.2}}}[weight_id]
    sys_ = maps.builtin_perturbed_cat(0.01).with_weight(*cli.build_weight(spec), tag=weight_id)
    assert_same_entries(closed_form_csr(sys_, N), full_grid_factored(sys_, N))


def test_closed_form_of_the_cat_map_holds_the_declared_coefficients(cat):
    # eps = 0: column k holds exactly g^_j at the row A^tr k + j for each
    # declared coefficient whose row lies in [-N, N]^2, and nothing else
    N = 23
    spec = {"id": "expression", "terms": {"one": 1.0, "cos1": 0.6, "sin2": 0.4}}
    sys_ = cat.with_weight(*cli.build_weight(spec), tag="trig")
    js, cs = sys_.weight_hat
    assert len(js) == 5 and 0.3 in cs and -0.2j in cs
    side = 2 * N + 1
    k1, k2 = (k.ravel() for k in np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1),
                                            indexing="ij"))
    rows, cols, vals = [], [], []
    for j, c in zip(js, cs):
        r1 = 2 * k1 + k2 + j[0]
        r2 = k1 + k2 + j[1]
        inside = (np.abs(r1) <= N) & (np.abs(r2) <= N)
        rows.append((r1[inside] + N) * side + r2[inside] + N)
        cols.append(np.flatnonzero(inside))
        vals.append(np.full(np.count_nonzero(inside), c, dtype=complex))
    want = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(side * side, side * side)).tocsr()
    assert_same_bits(closed_form_csr(sys_, N), want)


def test_closed_form_of_a_zero_weight_is_zero(pcat):
    zero = pcat.with_weight(*cli.build_weight({"id": "constant", "value": 0.0}), tag="zero")
    tm = coll.build_transfer_matrix(zero, 22)
    assert sp.issparse(tm.matrix) and tm.matrix.nnz == 0 and tm.delta == 0.0


def full_grid_fft(sys_, N):
    """The FFT build with each column taken from the whole fft2."""
    G = coll.GRID_FACTOR * (2 * N + 1)
    t = np.arange(G) / G
    X1, X2 = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    T = sys_.forward(pts)
    W = np.asarray(sys_.weight(pts)).reshape(G, G).astype(complex)
    E1 = np.exp(coll.TWO_PI * 1j * T[:, 0]).reshape(G, G)
    E2 = np.exp(coll.TWO_PI * 1j * T[:, 1]).reshape(G, G)
    dim = (2 * N + 1) ** 2
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


@pytest.mark.parametrize("N", [6, 20])
def test_pruned_fft_build_is_the_full_fft2_build(pcat, N):
    assert_same_bits(fft_matrix(pcat, N), full_grid_fft(pcat, N))


def index_order_build(sys_, N):
    """R and delta of the FFT build with its columns made in index order,
    each k < 0 column held until its partner arrives: the build the pair
    order replaced, kept as the oracle of its bits."""
    G = coll.GRID_FACTOR * (2 * N + 1)
    t = np.arange(G) / G
    X1, X2 = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    T = sys_.forward(pts)
    W = np.asarray(sys_.weight(pts)).reshape(G, G).astype(complex)
    E1 = np.exp(coll.TWO_PI * 1j * T[:, 0]).reshape(G, G)
    E2 = np.exp(coll.TWO_PI * 1j * T[:, 1]).reshape(G, G)
    idx = np.arange(-N, N + 1) % G

    def columns():
        E1_pow = W * E1 ** (-N)
        for k1 in range(-N, N + 1):
            cur = E1_pow * E2 ** (-N)
            for k2 in range(-N, N + 1):
                yield sfft.fft(sfft.fft(cur, axis=0)[idx], axis=1)[:, idx].ravel() / (G * G)
                cur = cur * E2
            E1_pow = E1_pow * E1

    dim = (2 * N + 1) ** 2
    c = dim // 2
    R = np.empty((dim, dim), order="F")
    held = np.empty((c, dim), dtype=complex)
    sq = 0.0
    for i, col in enumerate(columns()):
        if i < c:
            held[i] = col
            continue
        if i == c:
            Y = coll._uh_rows(col[:, None])
            R[:, c] = Y[:, 0].real
        else:
            low = held[dim - 1 - i]
            Y = coll._uh_rows(np.stack([(col + low) * coll.SQRT_HALF,
                                        (col - low) * (-1j * coll.SQRT_HALF)], axis=1))
            R[:, i] = Y[:, 0].real
            R[:, dim - 1 - i] = Y[:, 1].real
        sq += float(np.sum(Y.imag ** 2))
    return R, math.sqrt(sq)


@pytest.mark.parametrize("N", [6, 20])
def test_pair_order_build_is_the_index_order_build(pcat, N):
    tm = coll.build_transfer_matrix(pcat, N)
    R, delta = index_order_build(pcat, N)
    assert tm.matrix.flags.f_contiguous
    assert np.array_equal(tm.matrix.view(np.uint64), R.view(np.uint64))
    assert tm.delta == delta


def test_fft_build_working_set(pcat):
    # one pair of k1 blocks is held at a time, not every k < 0 column (22.6
    # MB of complex at n_freq 20); the dense R itself is 22.6 MB
    tracemalloc.start()
    try:
        coll.build_transfer_matrix(pcat, 20)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 35.0


def real_modes(dim):
    """The unitary U of the real modes, as CSR: e_0 stays; for the index i
    of k > 0 and its partner q = dim - 1 - i of -k, column i is
    (e_i + e_q) / sqrt 2 and column q is (e_i - e_q) / (i sqrt 2)."""
    c = dim // 2
    up = np.arange(c + 1, dim)
    low = dim - 1 - up
    s = np.sqrt(0.5)
    vals = np.concatenate([[1.0], np.full(up.size, s), np.full(up.size, s),
                           np.full(up.size, -1j * s), np.full(up.size, 1j * s)])
    rows = np.concatenate([[c], up, low, up, low])
    cols = np.concatenate([[c], up, up, low, low])
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def test_csr_real_form_round_trip():
    # above FFT_MAX_DIM, where the closed form hands over CSR; the matrix is
    # U R U^H for a random real R, so it has the symmetry of a real operator
    # and its real form is R
    n_freq = 34
    dim = (2 * n_freq + 1) ** 2
    assert dim > coll.FFT_MAX_DIM
    rng = np.random.default_rng(11)
    R = sp.random(dim, dim, density=6.0 / dim, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    R = R + sp.identity(dim, format="csr")
    U = real_modes(dim)
    got, delta = coll._real_pairs(column_blocks(U @ R @ U.conj().T, n_freq), n_freq)
    assert delta < 1e-12 and abs(got - R).max() < 1e-14


# ---------------------------------------------------------------------------
# the real form: a similarity that the residuals can see fail
# ---------------------------------------------------------------------------


SIMILARITY_WEIGHTS = {
    "one": {"id": "one"},
    # sin terms make the e_k-basis matrix complex; its real form stays real
    "expression": {"id": "expression", "terms": {"one": 1.0, "sin1": 0.3, "sin2": 0.2}},
}


def weighted_pcat(weight_id):
    weight = cli.build_weight(SIMILARITY_WEIGHTS[weight_id])
    pc = maps.builtin_perturbed_cat(0.01)
    return pc if weight is None else pc.with_weight(*weight, tag=weight_id)


def matched_rel_gaps(a, b, k):
    """Relative distance from each of the k largest of a to its nearest
    unused value in b."""
    pool = list(b)
    gaps = []
    for z in a[np.argsort(-np.abs(a), kind="stable")][:k]:
        j = int(np.argmin([abs(z - y) for y in pool]))
        gaps.append(abs(z - pool.pop(j)) / abs(z))
    return np.array(gaps)


# how many of the top 12 np.linalg.eigvals resolves to 1e-12 on the complex
# matrix at n_freq 6-8.  The truncation is strongly nonnormal (eigenvalue
# condition numbers from 7e10 for -0.0316 up to 1e17, ROADMAP item 4): past
# these, the dense spectra of M and R differ by 3e-11 to 1e-2 relative, the
# error of the eigensolves and not of the real form, whose traces agree
RESOLVED_TOP = {"one": 1, "expression": 3}


@pytest.mark.parametrize("weight_id", sorted(SIMILARITY_WEIGHTS))
@pytest.mark.parametrize("N", [6, 7, 8])
def test_real_form_is_a_similarity(weight_id, N):
    sys_ = weighted_pcat(weight_id)
    M = fft_matrix(sys_, N)
    if weight_id == "expression":
        assert np.abs(M.imag).max() > 0.1
    rf = coll.build_transfer_matrix(sys_, N)
    assert rf.matrix.dtype == np.float64
    assert rf.delta < 1e-12
    U = real_modes(M.shape[0]).toarray()
    assert np.linalg.norm(U @ rf.matrix @ U.conj().T - M) <= rf.delta + 1e-14
    # similarity invariants that do not depend on eigenvalue conditioning
    Rm, Mm = np.eye(M.shape[0]), np.eye(M.shape[0])
    for _ in range(12):
        Rm, Mm = Rm @ rf.matrix, Mm @ M
        assert abs(np.trace(Rm) - np.trace(Mm)) <= 1e-12 * max(1.0, abs(np.trace(Mm)))
    top = RESOLVED_TOP[weight_id]
    gaps = matched_rel_gaps(np.linalg.eigvals(rf.matrix), np.linalg.eigvals(M), top)
    assert np.max(gaps) <= 1e-12


def test_build_hands_over_the_real_form_of_its_columns(pcat):
    # the FFT build pairs its columns as they come: U^H M U taken densely
    # gives the same R and delta to roundoff
    fft = coll.build_transfer_matrix(pcat, 8)
    ref = real_tm(fft_matrix(pcat, 8))
    assert isinstance(fft.matrix, np.ndarray) and fft.matrix.dtype == np.float64
    assert np.abs(fft.matrix - ref.matrix).max() < 1e-15
    assert abs(fft.delta - ref.delta) < 1e-15
    # the closed form at 24 modes a side: its k1 blocks in pair order give
    # the bits of its whole CSR matrix cut into the same blocks, kept CSR
    fac = coll.build_transfer_matrix(pcat, 24)
    dropped = [b[3] for b in coll._closed_form_blocks(pcat, 24, coll._pair_order(24))]
    R, delta = coll._real_pairs(column_blocks(closed_form_csr(pcat, 24), 24, dropped), 24)
    assert sp.isspmatrix_csr(fac.matrix) and fac.matrix.dtype == np.float64
    assert fac.delta == delta
    assert_same_bits(fac.matrix, R)
    # 8.9e-12, most of it the entries the closed form drops
    assert 0 < fac.delta < 1e-11


def test_real_form_delta_is_what_it_leaves_out(pcat, monkeypatch):
    # the closed form drops its entries at SPARSE_DROP_TOL and the CSR real
    # form drops its own; delta counts both with the imaginary parts
    M = closed_form_csr(pcat, 10)
    R, delta = coll._real_pairs(coll._closed_form_blocks(pcat, 10, coll._pair_order(10)), 10)
    U = real_modes(M.shape[0]).toarray()
    D = U.conj().T @ M.toarray() @ U
    R = R.toarray()
    dropped = (R == 0) & (D.real != 0)
    assert np.count_nonzero(dropped) > 0
    assert np.abs(D.real[dropped]).max() <= coll.SPARSE_DROP_TOL
    assert np.linalg.norm(D.imag) < 0.1 * delta
    # against the closed form that drops nothing
    monkeypatch.setattr(coll, "SPARSE_DROP_TOL", 0.0)
    D = U.conj().T @ closed_form_csr(pcat, 10).toarray() @ U
    assert math.isclose(delta, np.linalg.norm(D - R), rel_tol=1e-4)


@pytest.mark.parametrize("N", [23, 40])
def test_delta_counts_the_entries_the_closed_form_drops(pcat, monkeypatch, N):
    # the entries of modulus at most SPARSE_DROP_TOL, taken from the closed
    # form that drops nothing: Frobenius norm 8.4e-12 at 23 and 1.7e-11 at
    # 40, 30-65 times the rest of delta
    tm = coll.build_transfer_matrix(pcat, N)
    monkeypatch.setattr(coll, "SPARSE_DROP_TOL", 0.0)
    sq = 0.0
    for _, vals, _, _ in coll._closed_form_blocks(pcat, N, range(2 * N + 1)):
        small = vals[np.abs(vals) <= 1e-13]
        sq += float(np.sum(np.abs(small) ** 2))
    assert sq > 0.0
    assert tm.delta >= math.sqrt(sq)


def test_matrix_without_the_symmetry_fails_the_residual_check(pcat):
    # the weight 1 + 1e-6 i cos 2 pi x1 is not real, so U^H M U has the
    # imaginary part 1e-6 U^H C U, C the matrix of the weight cos 2 pi x1;
    # both builds: the FFT build at 8, the closed form (CSR) at 22
    asym = pcat.with_weight(lambda x: 1.0 + 1e-6j * np.cos(2 * np.pi * x[:, 0]),
                            (((-1, 0), (0, 0), (1, 0)), (5e-7j, 1.0, 5e-7j)), tag="asym")
    for N in (8, 22):
        tm = coll.build_transfer_matrix(asym, N)
        assert sp.issparse(tm.matrix) == ((2 * N + 1) ** 2 > coll.FFT_MAX_DIM)
        assert tm.delta >= 1e-6
        for top in (None, 8):
            w, res = coll.eigen_resonances(tm, top=top, seed=0)
            assert np.all(res >= tm.delta)
            with pytest.raises(EigenSolverFailure):
                coll.check_residuals(w, res)


def assert_conjugate_pairs(w, res=None):
    """Each non-real value of w has exactly one partner that is its
    conjugate bit for bit, with the same residual."""
    for j in np.flatnonzero(w.imag != 0):
        partner = np.flatnonzero((w.real == w[j].real) & (w.imag == -w[j].imag))
        assert partner.size == 1, w[j]
        if res is not None:
            assert res[partner[0]] == res[j]


def test_subspace_route_keeps_conjugate_pairs_whole(pcat):
    # the benchmark map at half the benchmark truncations
    tm10 = coll.build_transfer_matrix(pcat, 10)
    w10, r10 = coll.eigen_resonances(tm10, top=48, seed=7)
    w20, r20 = coll.eigen_resonances(coll.build_transfer_matrix(pcat, 20), top=48, seed=7)
    for w, res in ((w10, r10), (w20, r20)):
        assert 0 < len(w) <= 48 and np.count_nonzero(w.imag) >= 20
        assert_conjugate_pairs(w, res)
    # against the doubled truncation only real values survive here; against
    # the dense spectrum of the same matrix, pairs do, and survive together
    wd, _ = coll.eigen_resonances(tm10)
    for ref in (w20, wd):
        stable = w10[coll.stability_filter(w10, ref)[:, 0]]
        assert_conjugate_pairs(stable)
    assert np.count_nonzero(stable.imag) >= 2
