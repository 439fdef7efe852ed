import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hypdet import maps, orbits
from hypdet.errors import NonHyperbolicMatrix

A = maps.CAT_A_INT


def exact_count(m):
    Am = orbits._int_matrix_power(A, m)
    B = Am - np.eye(2, dtype=object)
    return abs(int(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]))


@pytest.mark.parametrize("m,count", [(1, 1), (2, 5), (3, 16), (4, 45)])
def test_lattice_counts_small(m, count):
    pts = orbits.fixed_points_linear_toral(A, m)
    assert len(pts) == count


def test_lattice_counts_exact_to_12():
    for m in range(1, 13):
        pts = orbits.fixed_points_linear_toral(A, m)
        assert len(pts) == exact_count(m)


def test_lattice_points_are_fixed():
    cat = maps.builtin_cat_map()
    for m in (3, 6, 9):
        pts = orbits.fixed_points_linear_toral(A, m)
        z = pts.points
        for _ in range(m):
            z = cat.forward(z)
        d = z - pts.points
        d -= np.round(d)
        assert np.max(np.abs(d)) < 1e-10


def test_hyperbolic_fixed_invariant():
    pts = orbits.fixed_points_linear_toral(A, 5)
    eigs = np.linalg.eigvals(pts.derivatives)
    assert np.all(np.abs(np.abs(eigs) - 1.0) > 1e-6)


def test_pairwise_separation():
    pts = orbits.fixed_points_linear_toral(A, 8)
    tree = cKDTree(pts.points, boxsize=1.0)
    assert not tree.query_pairs(orbits.DEDUPE_RADIUS)


def test_nonhyperbolic_rejected():
    with pytest.raises(NonHyperbolicMatrix):
        orbits.fixed_points_linear_toral(np.array([[1, 1], [0, 1]]), 2)


def test_continue_identity_homotopy():
    ref = orbits.fixed_points_linear_toral(A, 3)
    pc0 = maps.builtin_perturbed_cat(0.0)
    out = orbits.continue_periodic_points(pc0, ref)
    assert np.allclose(out.points, ref.points)


def test_continue_m2(pcat):
    ref = orbits.fixed_points_linear_toral(A, 2)
    out = orbits.continue_periodic_points(pcat, ref)
    assert len(out) == 5
    z = out.points
    for _ in range(2):
        z = pcat.forward(z)
    d = z - out.points
    d -= np.round(d)
    assert np.max(np.abs(d)) <= 1e-12


def test_origin_stays_fixed(pcat):
    ref = orbits.fixed_points_linear_toral(A, 1)
    out = orbits.continue_periodic_points(pcat, ref)
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
    pts = orbits.periodic_points(maps.make_map("perturbed_cat", eps, seed), m)
    assert len(pts) == exact_count(m)
    assert pts.points.min() >= 0.0 and pts.points.max() < 1.0


def test_two_weights_under_one_tag_get_their_own_weight_product():
    # two weights under the same (default) tag: each set carries the g^(m)
    # of its own weight
    cat = maps.builtin_cat_map()
    for c in (2.0, 3.0):
        sys_ = cat.with_weight(lambda x, c=c: np.full(x.shape[0], c))
        assert np.all(orbits.periodic_points(sys_, 2).weights == c**2)


def test_refined_path_consistency(pcat):
    ref = orbits.fixed_points_linear_toral(A, 4)
    one = orbits.continue_periodic_points(pcat, ref, eps_path=[0.01])
    two = orbits.continue_periodic_points(pcat, ref, eps_path=[0.005, 0.01])
    assert np.max(np.abs(one.points - two.points)) < 1e-9


def test_weighted_lattice_points():
    w = lambda x: 2.0 * np.ones(x.shape[0])  # noqa: E731
    pts = orbits.fixed_points_linear_toral(A, 3)
    g3 = maps.weight_product(maps.builtin_cat_map().with_weight(w), pts.points, 3)
    assert np.allclose(g3, 8.0)


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
