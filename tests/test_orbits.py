import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hypdet import cli, maps, orbits
from hypdet.errors import (
    DegenerateDirection,
    NonHyperbolicMatrix,
    PerturbationTooLarge,
    SingularLinearization,
)

A = maps.CAT_A_INT
# per seed, the largest |eps| on the 0.005 grid up to PERTURBATION_BOUND that
# builtin_perturbed_cat admits (det DT >= JACOBIAN_DET_MARGIN on the torus);
# the sweeps below run each seed at this edge
EDGE_EPS = {0: 0.05, 1: 0.05, 2: 0.04, 3: 0.035, 4: 0.04, 5: 0.04, 6: 0.05, 7: 0.05}


def edge_eps(seed, eps):
    """eps with its modulus clipped to the seed's admissible edge."""
    return math.copysign(min(abs(eps), EDGE_EPS[seed]), eps)


def exact_count(m):
    Am = orbits._int_matrix_power(A, m)
    B = Am - np.eye(2, dtype=object)
    return abs(int(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]))


def lattice_orbits(A, m):
    """The orbits of Fix(A^m) for x -> A x mod 1 as (m, K, 2) floats, one
    per point: point k of each cycle of lattice_cycles, k below its period,
    with the cycle's orbit shifted by k.  The seeds of the full-orbit solve,
    one orbit per point, that the cycle solve replaced."""
    orbit, period = orbits.lattice_cycles(A, m)
    k, c = np.nonzero(np.arange(m)[:, None] < period)
    return np.stack([orbit[(k + t) % m, c] for t in range(m)])


def full_orbit_points(sys_, m):
    """Fix(T^m) by the full-orbit solve: every point of Fix(A^m) seeds its
    own orbit, all m per-step Jacobians of every point are kept, and DT^m,
    det DT^m and g^(m) are taken at each point from its own orbit.  Returns
    (points, DT^m, weights, det DT^m), sorted as periodic_points sorts: the
    oracle of the cycle solve."""
    orbit = lattice_orbits(sys_.linear_part, m)
    K = orbit.shape[1]
    eye = np.broadcast_to(np.eye(2), (K, 2, 2))
    for _ in range(50):
        F = np.empty_like(orbit)
        P = np.empty((m, K, 2, 2))
        for k in range(m):
            d = orbit[(k + 1) % m] - sys_.forward(orbit[k])
            F[k] = d - np.round(d)
            P[k] = sys_.jacobian(orbit[k])
        S = eye.copy()
        w = np.zeros((K, 2))
        for k in range(m - 1, -1, -1):
            w = w + (S @ F[k][..., None])[..., 0]
            S = S @ P[k]
        if np.max(np.abs(F)) <= 0.05 * orbits.NEWTON_TOL:
            break
        delta = -np.linalg.solve(eye - S, w[..., None])[..., 0]
        for k in range(m):
            orbit[k] = np.mod(orbit[k] + delta, 1.0)
            if k < m - 1:
                delta = (P[k] @ delta[..., None])[..., 0] - F[k]
    else:
        raise AssertionError("full-orbit Newton exceeded 50 iterations")
    jac_det = np.ones(K)
    weights = np.ones(K)
    for k in range(m):
        jac_det *= P[k][:, 0, 0] * P[k][:, 1, 1] - P[k][:, 0, 1] * P[k][:, 1, 0]
        weights *= sys_.weight(orbit[k])
    X = np.where(orbit[0] < 1.0, orbit[0], 0.0)
    order = np.lexsort((X[:, 1], X[:, 0]))
    return X[order], S[order], weights[order], jac_det[order]


def lattice_points(A, m):
    """Every point of Fix(A^m), from the cycles of lattice_cycles."""
    orbit, period = orbits.lattice_cycles(A, m)
    k, c = np.nonzero(np.arange(m)[:, None] < period)
    return orbit[k, c]


@pytest.mark.parametrize("m,count", [(1, 1), (2, 5), (3, 16), (4, 45)])
def test_lattice_counts_small(m, count):
    assert lattice_points(A, m).shape == (count, 2)


def test_lattice_counts_exact_to_12():
    for m in range(1, 13):
        assert lattice_points(A, m).shape[0] == exact_count(m)


def test_lattice_points_are_fixed():
    # row k + 1 is the cat map's image of row k, and row 0 that of row m - 1
    cat = maps.builtin_cat_map()
    for m in (3, 6, 9):
        orbit, _ = orbits.lattice_cycles(A, m)
        d = cat.forward(orbit) - np.roll(orbit, -1, axis=0)
        d -= np.round(d)
        assert np.max(np.abs(d)) < 1e-10
        assert orbit.min() >= 0.0 and orbit.max() < 1.0


def mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def test_cycle_counts_are_the_prime_orbit_counts():
    # in exact integers: the cycles of exact period d number
    # (1/d) sum_{e | d} mu(d / e) |det(A^e - I)|, and each cycle of Fix(A^m)
    # has d points, so sum_{d | m} d #cycles(d) = |det(A^m - I)|; the torus
    # maps share one linear part, taken once
    parts = {s.linear_part.tobytes(): s.linear_part
             for s in (maps.builtin_cat_map(), maps.builtin_perturbed_cat(0.01))}
    for A_ in parts.values():
        for m in range(1, 17):
            _, period = orbits.lattice_cycles(A_, m)
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            assert set(period.tolist()) <= set(divisors)
            for d in divisors:
                prime = sum(mobius(d // e) * orbits.fixed_point_count(A_, e)
                            for e in range(1, d + 1) if d % e == 0)
                assert prime % d == 0
                assert int(np.count_nonzero(period == d)) == prime // d
            assert sum(d * int(np.count_nonzero(period == d)) for d in divisors) \
                == orbits.fixed_point_count(A_, m)


def test_hyperbolic_fixed_invariant():
    cat = maps.builtin_cat_map()
    pts = orbits.periodic_points(cat, 5)
    DT = maps.jacobian_cocycle(cat, pts.points, 5)
    assert np.array_equal(pts.trace, np.trace(DT, axis1=1, axis2=2))
    eigs = np.sort(np.abs(np.linalg.eigvals(DT)), axis=1)
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
    tree = cKDTree(lattice_points(A, 8), boxsize=1.0)
    assert not tree.query_pairs(orbits.DEDUPE_RADIUS)


def test_nonhyperbolic_rejected():
    with pytest.raises(NonHyperbolicMatrix):
        orbits.lattice_cycles(np.array([[1, 1], [0, 1]]), 2)


def test_continue_identity_homotopy():
    # at eps = 0 the Newton jump leaves the lattice seeds where they are
    X = lattice_orbits(A, 3)[0]
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
# closure errors of 1.1e-11 and 4.3e-11 when Newton stopped on the per-step
# residual without applying its last correction
@example(seed=0, eps=0.0390625, m=7)
@example(seed=0, eps=0.040625, m=8)
def test_periodic_points_count_and_range(seed, eps, m):
    try:
        sys_ = maps.make_map("perturbed_cat", eps, seed)
    except PerturbationTooLarge:
        reject()  # det DT falls below JACOBIAN_DET_MARGIN somewhere
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
    orbit = lattice_orbits(A, m)
    for eps_k in np.linspace(eps / n_steps, eps, n_steps):
        orbits._newton_fixed_points(maps.builtin_perturbed_cat(eps_k, seed), orbit)
    X = np.where(orbit[0] < 1.0, orbit[0], 0.0)
    return X[np.lexsort((X[:, 1], X[:, 0]))]


@pytest.mark.parametrize("eps", [0.05, -0.05])
@pytest.mark.parametrize("seed", range(8))
def test_one_jump_matches_stepped_homotopy(eps, seed):
    # at the sign of eps and the seed's admissible edge: 0.035-0.05
    eps = edge_eps(seed, eps)
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


@pytest.mark.parametrize("A_,m", [
    (A, 1), (A, 2), (A, 3), (A, 4), (A, 5), (A, 6),
    ([[3, 1], [2, 1]], 2), ([[3, 1], [2, 1]], 3), ([[0, 1], [1, 1]], 5),
    ([[-2, 1], [1, -1]], 4), ([[2, 3], [1, 2]], 3), ([[4, 1], [3, 1]], 2),
    ([[5, 2], [2, 1]], 2), ([[0, 1], [1, 3]], 3),
])
def test_lattice_cycles_against_brute_force(A_, m):
    # the points n / D of lattice_cycles are every k in (Z/D)^2 with
    # B k = 0 mod D, B = A^m - I, each once
    A_ = np.array(A_, dtype=np.int64)
    D = orbits.fixed_point_count(A_, m)
    B = orbits._int_matrix_power(A_, m).astype(np.int64) - np.eye(2, dtype=np.int64)
    k = np.stack(np.meshgrid(np.arange(D), np.arange(D), indexing="ij"), axis=-1).reshape(-1, 2)
    want = {tuple(r) for r in k[np.all(k @ B.T % D == 0, axis=1)].tolist()}
    n = np.rint(lattice_points(A_, m) * D).astype(np.int64)
    assert len(want) == D == n.shape[0]
    assert {tuple(r) for r in n.tolist()} == want


def test_cat_m4_lattice_is_not_cyclic():
    # Fix(A^4) is Z/3 + Z/15: 45 points, none of order 45, so no single
    # generator lists them
    n = np.rint(lattice_points(A, 4) * 45).astype(np.int64)
    assert n.shape == (45, 2) and np.all(15 * n % 45 == 0)
    assert np.any(5 * n % 45 != 0) and np.any(3 * n % 45 != 0)


def assert_close(got, want):
    """Agreement to 1e-12, relative above 1 and absolute below."""
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("eps", [0.05, -0.05, 0.03, -0.035])
def test_cycle_solve_matches_full_orbit_solve(eps):
    # each seed at eps, or at its admissible edge where |eps| is beyond it
    for seed in range(8):
        sys_ = maps.make_map("perturbed_cat", edge_eps(seed, eps), seed)
        for m in range(1, 9):
            pts = orbits.periodic_points(sys_, m)
            X, DT, weights, jac_det = full_orbit_points(sys_, m)
            d = pts.points - X
            assert np.max(np.abs(d - np.round(d))) <= 1e-12
            trace = np.trace(DT, axis1=1, axis2=2)
            lam, nu, fix_det = orbits.linear_invariants(DT, jac_det)
            for got, want in ((pts.trace, trace), (pts.lam, lam), (pts.nu, nu),
                              (pts.fix_det, fix_det), (pts.weights, weights)):
                assert_close(got, want)


def _traced_peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_cycle_solve_working_set():
    # one seed orbit per cycle, not per point: 10.7 MB traced at eps 0.05,
    # m = 12, where the full-orbit solve held all m Jacobians of every
    # point (126 MB)
    sys_ = maps.builtin_perturbed_cat(0.05)
    assert _traced_peak_mb(lambda: orbits.periodic_points(sys_, 12)) < 63.0


def test_cycle_diagnostics():
    sys_ = maps.builtin_perturbed_cat(0.05)
    for m in (6, 8):
        pts = orbits.periodic_points(sys_, m)
        _, period = orbits.lattice_cycles(sys_.linear_part, m)
        assert pts.cycles == period.size and len(pts) == exact_count(m)
        assert 1 <= pts.newton_steps < 50
        assert 0.0 <= pts.newton_residual <= 0.05 * orbits.NEWTON_TOL
    # the origin is fixed, and the lattice seeds of the cat map are its
    # points: no Newton step
    for sys_, m in ((sys_, 1), (maps.builtin_cat_map(), 6)):
        pts = orbits.periodic_points(sys_, m)
        assert pts.newton_steps == 0 and pts.newton_residual <= 1e-15


def test_edge_eps_is_the_admissible_edge():
    # seeds 2-5 are refused at |eps| 0.05 (det DT reaches -0.041 to -0.158);
    # one grid step past each edge below PERTURBATION_BOUND is refused too
    for seed, edge in EDGE_EPS.items():
        for eps in (edge, -edge):
            maps.make_map("perturbed_cat", eps, seed)
            if edge < maps.PERTURBATION_BOUND:
                with pytest.raises(PerturbationTooLarge, match="det DT"):
                    maps.make_map("perturbed_cat", eps + math.copysign(0.005, eps), seed)
