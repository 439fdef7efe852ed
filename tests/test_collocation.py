import dataclasses
import warnings

import numpy as np
import pytest

from hypdet import collocation as coll
from hypdet import maps
from hypdet.errors import EigenSolverFailure


def mode_index(k, N):
    """Row/column of mode k in the [-N, N]^2 truncation, k1-major."""
    k1, k2 = int(k[0]), int(k[1])
    assert abs(k1) <= N and abs(k2) <= N
    return (k1 + N) * (2 * N + 1) + (k2 + N)


def entry(tm, kprime, k):
    return complex(tm.matrix[mode_index(kprime, tm.n_freq), mode_index(k, tm.n_freq)])


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


def spot_check(sys_, tm, n_entries, seed):
    """Max |entry - direct_entry| over random (k', k) pairs."""
    rng = np.random.default_rng(seed)
    N = tm.n_freq
    worst = 0.0
    for _ in range(n_entries):
        k = rng.integers(-N, N + 1, size=2)
        kp = rng.integers(-N, N + 1, size=2)
        worst = max(worst, abs(entry(tm, kp, k) - direct_entry(sys_, kp, k, N)))
    return worst


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
    tm = coll.build_transfer_matrix(e1, N)
    M = tm.toarray()
    k = np.array([1, 1])
    kp = maps.CAT_A_INT.T @ k + np.array([1, 0])
    col = M[:, mode_index(k, N)]
    nz = np.flatnonzero(np.abs(col) > 1e-12)
    assert nz.tolist() == [mode_index(kp, N)]


def test_spot_check_both_methods(pcat):
    tm_fft = coll.TransferMatrix(n_freq=10, matrix=coll._build_fft(pcat, 10))
    assert spot_check(pcat, tm_fft, n_entries=6, seed=0) < 1e-10
    tm_fac = coll.TransferMatrix(n_freq=10, matrix=coll._build_factored(pcat, 10))
    assert spot_check(pcat, tm_fac, n_entries=6, seed=0) < 1e-10
    assert np.max(np.abs(tm_fft.toarray() - tm_fac.toarray())) < 1e-12


def test_large_truncation_needs_decomposition(pcat, chart):
    # 47^2 = 2209 modes are above FFT_MAX_DIM, 9^2 below: both sizes refuse a
    # map without the torus decomposition, and the chart model has none
    bare = dataclasses.replace(pcat, periodic_part=None)
    for sys_, n_freq in ((bare, 23), (bare, 4), (chart[0], 4)):
        with pytest.raises(ValueError, match="linear_part and periodic_part"):
            coll.build_transfer_matrix(sys_, n_freq)


def test_weight_scaling_scales_spectrum(pcat):
    c = 0.5
    scaled = pcat.with_weight(
        lambda x: np.full(x.shape[0], c), tag="half")
    tm1 = coll.build_transfer_matrix(pcat, 8)
    tm2 = coll.build_transfer_matrix(scaled, 8)
    assert np.max(np.abs(tm2.toarray() - c * tm1.toarray())) < 1e-12
    w1, _ = coll.eigen_resonances(tm1)
    w2, _ = coll.eigen_resonances(tm2)
    assert abs(w2[0] - c * w1[0]) < 1e-9


def test_eigen_diag_matrix():
    diag = np.diag([3.0, 2.0, 1.0, 0.5])
    tm = coll.TransferMatrix(n_freq=0, matrix=diag)
    got, res = coll.eigen_resonances(tm)
    assert np.allclose(np.abs(got), [3.0, 2.0, 1.0, 0.5])
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
    big = coll.TransferMatrix(n_freq=40, matrix=None)
    with pytest.raises(EigenSolverFailure):
        coll.eigen_resonances(big)


def test_subspace_matches_dense(pcat):
    tm = coll.TransferMatrix(n_freq=10, matrix=coll._build_factored(pcat, 10))
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


def test_sparse_representation_large():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pc = maps.builtin_perturbed_cat(0.01)
        tm = coll.build_transfer_matrix(pc, 36)
    import scipy.sparse as sp

    assert sp.issparse(tm.matrix)
    k = (3, -5)
    kp = maps.CAT_A_INT.T @ np.asarray(k)
    direct = direct_entry(pc, kp, k, 36, refine=1)
    assert abs(entry(tm, kp, k) - direct) < 1e-10
