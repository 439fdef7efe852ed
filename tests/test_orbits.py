import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hypdet import cli, maps, orbits
from hypdet.errors import DegenerateDirection, NonHyperbolicMatrix, SingularLinearization

A = maps.CAT_A_INT


def exact_count(m):
    Am = orbits._int_matrix_power(A, m)
    B = Am - np.eye(2, dtype=object)
    return abs(int(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]))


@pytest.mark.parametrize("m,count", [(1, 1), (2, 5), (3, 16), (4, 45)])
def test_lattice_counts_small(m, count):
    orbit = orbits.fixed_points_linear_toral(A, m)
    assert orbit.shape == (m, count, 2)


def test_lattice_counts_exact_to_12():
    for m in range(1, 13):
        assert orbits.fixed_points_linear_toral(A, m).shape[1] == exact_count(m)


def test_lattice_points_are_fixed():
    # row k + 1 is the cat map's image of row k, and row 0 that of row m - 1
    cat = maps.builtin_cat_map()
    for m in (3, 6, 9):
        orbit = orbits.fixed_points_linear_toral(A, m)
        d = cat.forward(orbit) - np.roll(orbit, -1, axis=0)
        d -= np.round(d)
        assert np.max(np.abs(d)) < 1e-10
        assert orbit.min() >= 0.0 and orbit.max() < 1.0


def test_hyperbolic_fixed_invariant():
    pts = orbits.periodic_points(maps.builtin_cat_map(), 5)
    eigs = np.sort(np.abs(np.linalg.eigvals(pts.derivatives)), axis=1)
    assert np.all(np.abs(eigs - 1.0) > 1e-6)
    assert np.allclose(eigs, np.stack([pts.lam, pts.nu], axis=1), rtol=1e-12, atol=0.0)
    assert np.all(pts.jac_det == 1.0)


def test_exponents_exact_on_cat(cat_pts):
    # det DT^10 is the product of ten unit determinants, so lambda = 1 / nu
    # keeps every digit; LU on DT^10, whose entries reach 1.1e4, loses about four
    pts = cat_pts[10]
    assert np.allclose(pts.lam, maps.CAT_MU**10, rtol=1e-14, atol=0.0)
    assert np.allclose(pts.nu, maps.CAT_LAMBDA**10, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("D,error,match", [
    # an eigenvalue within UNIT_CIRCLE_MARGIN of the unit circle
    ([[1.0 + 5e-7, 0.0], [0.0, 3.0]], SingularLinearization, "unit circle"),
    ([[0.3, 0.0], [0.0, 1.0 - 5e-7]], SingularLinearization, "unit circle"),
    ([[-1.0 - 5e-7, 0.0], [0.0, 3.0]], SingularLinearization, "unit circle"),
    # eigenvalues 2 and 0.5, but ||(Id - D)^{-1}|| is about 2e12
    ([[2.0, 1e12], [0.0, 0.5]], SingularLinearization, "norm"),
    # eigenvalues +-2i: no real pair
    ([[0.0, -2.0], [2.0, 0.0]], DegenerateDirection, "real eigenvalue pair"),
])
def test_invariants_checks(D, error, match):
    D = np.array([D])
    jac_det = D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]
    with pytest.raises(error, match=match):
        orbits.linear_invariants(D, jac_det)


def test_pairwise_separation():
    tree = cKDTree(orbits.fixed_points_linear_toral(A, 8)[0], boxsize=1.0)
    assert not tree.query_pairs(orbits.DEDUPE_RADIUS)


def test_nonhyperbolic_rejected():
    with pytest.raises(NonHyperbolicMatrix):
        orbits.fixed_points_linear_toral(np.array([[1, 1], [0, 1]]), 2)


def test_continue_identity_homotopy():
    # at eps = 0 the Newton jump leaves the lattice seeds where they are
    X = orbits.fixed_points_linear_toral(A, 3)[0]
    out = orbits.periodic_points(maps.builtin_perturbed_cat(0.0), 3)
    assert np.array_equal(out.points, X[np.lexsort((X[:, 1], X[:, 0]))])


def test_continue_m2(pcat):
    out = orbits.periodic_points(pcat, 2)
    assert len(out) == 5
    z = out.points
    for _ in range(2):
        z = pcat.forward(z)
    d = z - out.points
    d -= np.round(d)
    assert np.max(np.abs(d)) <= 1e-12


def test_origin_stays_fixed(pcat):
    out = orbits.periodic_points(pcat, 1)
    assert len(out) == 1
    assert np.max(np.abs(out.points)) < 1e-12


def test_verify_count(pcat):
    # the Lefschetz count |det(A^m - I)| of the continued sets
    for m in range(1, 7):
        assert len(orbits.periodic_points(pcat, m)) == exact_count(m)
    assert exact_count(4) == 45


def test_orbit_closure(pcat):
    pts = orbits.periodic_points(pcat, 5)
    img = pcat.forward(pts.points)
    tree = cKDTree(pts.points, boxsize=1.0)
    d, _ = tree.query(img)
    assert np.max(d) < 1e-9


def test_collision_check_accepts_points_wrapped_to_one():
    # seed 7 at eps 0.05 yields a coordinate np.mod rounds to exactly 1.0
    pts = orbits.periodic_points(maps.make_map("perturbed_cat", 0.05, 7), 8)
    assert len(pts) == exact_count(8) == 2205


def test_continued_points_stored_in_unit_square():
    # the coordinate np.mod rounds to 1.0 is stored folded onto 0.0
    pts = orbits.periodic_points(maps.make_map("perturbed_cat", 0.05, 7), 8)
    assert pts.points.max() < 1.0 and pts.points.min() >= 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 7), eps=st.floats(-0.05, 0.05), m=st.integers(1, 8))
def test_periodic_points_count_and_range(seed, eps, m):
    sys_ = maps.make_map("perturbed_cat", eps, seed)
    pts = orbits.periodic_points(sys_, m)
    assert len(pts) == exact_count(m)
    assert pts.points.min() >= 0.0 and pts.points.max() < 1.0
    z = pts.points
    for _ in range(m):
        z = sys_.forward(z)
    d = z - pts.points
    assert np.max(np.abs(d - np.round(d))) <= 1e-11


def test_two_weights_under_one_tag_get_their_own_weight_product():
    # two weights under the same (default) tag: each set carries the g^(m)
    # of its own weight
    cat = maps.builtin_cat_map()
    for c in (2.0, 3.0):
        sys_ = cat.with_weight(lambda x, c=c: np.full(x.shape[0], c))
        assert np.all(orbits.periodic_points(sys_, 2).weights == c**2)


def _stepped_homotopy_points(eps, seed, m):
    """Fix(T^m) of the perturbed cat map at eps, continued from the lattice
    orbits in steps of 0.01 in eps, a Newton solve per step; sorted as
    periodic_points sorts."""
    n_steps = math.ceil(abs(eps) / 0.01)
    orbit = orbits.fixed_points_linear_toral(A, m)
    for eps_k in np.linspace(eps / n_steps, eps, n_steps):
        X, _, orbit, _ = orbits._newton_fixed_points(maps.builtin_perturbed_cat(eps_k, seed), orbit)
    X = np.where(X < 1.0, X, 0.0)
    return X[np.lexsort((X[:, 1], X[:, 0]))]


@pytest.mark.parametrize("eps", [0.05, -0.05])
@pytest.mark.parametrize("seed", range(8))
def test_one_jump_matches_stepped_homotopy(eps, seed):
    for m in range(1, 9):
        pts = orbits.periodic_points(maps.make_map("perturbed_cat", eps, seed), m)
        d = pts.points - _stepped_homotopy_points(eps, seed, m)
        assert np.max(np.abs(d - np.round(d))) <= 1e-12


def test_hand_built_map_is_solved_as_given():
    # params that disagree with the dynamics are not read: the points are
    # fixed under the map's own forward (eps 0.02), not the registry's eps 0.01
    sys_ = dataclasses.replace(maps.builtin_perturbed_cat(0.02), params={"eps": 0.01, "seed": 0})
    for m in (2, 3):
        pts = orbits.periodic_points(sys_, m)
        z = pts.points
        for _ in range(m):
            z = sys_.forward(z)
        d = z - pts.points
        assert np.max(np.abs(d - np.round(d))) <= 1e-11


def test_cat_weight_product_is_exact():
    # g^(m) on the cat map against the product along the integer orbits
    # n_{k+1} = A n_k mod D, D = |det(A^m - I)|, in Python ints
    m = 12
    w, _ = cli.build_weight({"id": "expression",
                             "terms": {"one": 1.0, "cos1": 0.6, "sin2": 0.4}})
    pts = orbits.periodic_points(maps.builtin_cat_map().with_weight(w), m)
    D = exact_count(m)
    n = np.rint(pts.points * D).astype(np.int64).astype(object)
    B = orbits._int_matrix_power(A, m) - np.eye(2, dtype=object)
    assert np.all((n @ B.T) % D == 0)
    assert len({tuple(r) for r in n.tolist()}) == D
    g = np.ones(D)
    for _ in range(m):
        g *= w(n.astype(np.int64) / D)  # n / D correctly rounded
        n = (n @ A.astype(object).T) % D
    assert np.max(np.abs(pts.weights - g)) <= 1e-13


def test_weighted_lattice_points():
    w = lambda x: 2.0 * np.ones(x.shape[0])  # noqa: E731
    pts = orbits.periodic_points(maps.builtin_cat_map().with_weight(w), 3)
    assert np.allclose(pts.weights, 8.0)


def test_snf_unimodular_decomposition():
    rng = np.random.default_rng(5)
    for _ in range(20):
        B = rng.integers(-9, 10, size=(2, 2))
        if B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0] == 0:
            continue
        U, D, V = orbits.smith_normal_form_2x2(B)
        Uf, Df, Vf = (np.array(M, dtype=np.int64) for M in (U, D, V))
        assert abs(abs(np.linalg.det(Uf.astype(float))) - 1) < 1e-9
        assert abs(abs(np.linalg.det(Vf.astype(float))) - 1) < 1e-9
        assert Df[0, 1] == Df[1, 0] == 0
        assert np.array_equal(Uf @ np.asarray(B, dtype=np.int64) @ Vf, Df)
