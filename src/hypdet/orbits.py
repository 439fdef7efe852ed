"""Periodic points of T^m: exact lattice orbits and one Newton jump.

For a torus map T x = A x + (periodic part) mod 1 with a hyperbolic integer
matrix A, the fixed points of x -> A^m x mod 1 are the points n / D, D =
|det(A^m - I)|, enumerated exactly through the Smith normal form; their
orbits n_{k+1} = A n_k mod D are exact in integers.  These lattice orbits
seed one vectorized Newton solve of the orbit equations of T itself, which
gives Fix(T^m) for every torus map, the linear one included.  Nothing is
cached: a run computes each period it needs once and passes the sets on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    CollisionDetected,
    DegenerateDirection,
    NewtonDiverged,
    NonHyperbolicMatrix,
    SingularLinearization,
)
from .maps import MapSystem

DEDUPE_RADIUS = 1e-6
UNIT_CIRCLE_MARGIN = 1e-6
# Newton stops once the composed T^m residual is below this
NEWTON_TOL = 1e-12
# largest orbit array, m |det(A^m - I)| points, a run may ask for: the cat
# map's m = 14 (9.9e6, 0.91 GB peak and 20 s at eps 0.05, one BLAS thread on
# a 2-core x86-64 box) fits, m = 15 (2.8e7) does not
ORBIT_SIZE_MAX = 20_000_000


@dataclass(frozen=True)
class PeriodicPointSet:
    """Fixed points of T^m with DT^m, its invariants and g^(m) at each point."""

    period: int
    points: np.ndarray  # (k, 2)
    derivatives: np.ndarray  # (k, 2, 2)
    weights: np.ndarray  # (k,)
    jac_det: np.ndarray  # (k,) det DT^m
    lam: np.ndarray  # (k,) modulus of the contracting eigenvalue of DT^m
    nu: np.ndarray  # (k,) modulus of the expanding eigenvalue of DT^m
    fix_det: np.ndarray  # (k,) |det(Id - DT^m)|

    def __len__(self):
        return self.points.shape[0]


def _torus_diff(a, b):
    d = a - b
    return d - np.round(d)


def linear_invariants(derivs, jac_det):
    """(lam, nu, |det(Id - D)|) of 2x2 matrices D with det D = jac_det, from
    tr D and det D alone, which do not cancel as LU on a large D does.

    Raises DegenerateDirection for a complex pair, SingularLinearization for
    an eigenvalue within UNIT_CIRCLE_MARGIN of the unit circle or for
    ||(Id - D)^{-1}||_F = ||Id - D||_F / |det(Id - D)| above 1e10.
    """
    tr = np.trace(derivs, axis1=1, axis2=2)
    fix_det = np.abs(1.0 - tr + jac_det)
    inv_norm = np.linalg.norm(np.eye(2) - derivs, axis=(1, 2)) / fix_det
    if np.any(inv_norm > 1e10):
        raise SingularLinearization("(Id - DT^m)^{-1} norm exceeds 1e10")
    disc = tr**2 - 4.0 * jac_det
    if np.any(disc <= 0.0):
        raise DegenerateDirection("DT^m has no real eigenvalue pair at a periodic point")
    nu = (np.abs(tr) + np.sqrt(disc)) / 2.0
    lam = np.abs(jac_det) / nu
    if np.any(np.minimum(np.abs(lam - 1.0), np.abs(nu - 1.0)) < UNIT_CIRCLE_MARGIN):
        raise SingularLinearization(
            "DT^m has an eigenvalue within 1e-6 of the unit circle"
        )
    return lam, nu, fix_det


def smith_normal_form_2x2(B):
    """U, D, V with D = U B V diagonal, U, V unimodular (2x2 integers).

    Plain Euclidean reduction; exact in Python ints.
    """
    B = [[int(B[0][0]), int(B[0][1])], [int(B[1][0]), int(B[1][1])]]
    U = [[1, 0], [0, 1]]
    V = [[1, 0], [0, 1]]

    def row_op(k, l, q):  # row k -= q * row l
        for j in range(2):
            B[k][j] -= q * B[l][j]
            U[k][j] -= q * U[l][j]

    def col_op(k, l, q):  # col k -= q * col l
        for i in range(2):
            B[i][k] -= q * B[i][l]
            V[i][k] -= q * V[i][l]

    def swap_rows():
        B[0], B[1] = B[1], B[0]
        U[0], U[1] = U[1], U[0]

    def swap_cols():
        for M in (B, V):
            M[0][0], M[0][1] = M[0][1], M[0][0]
            M[1][0], M[1][1] = M[1][1], M[1][0]

    # clear off-diagonal by alternating row/column reductions
    for _ in range(200):
        if B[1][0] == 0 and B[0][1] == 0:
            break
        if B[0][0] == 0:
            if B[1][0] != 0:
                swap_rows()
            else:
                swap_cols()
            continue
        if B[1][0] != 0:
            row_op(1, 0, B[1][0] // B[0][0])
            if B[1][0] != 0:
                swap_rows()
            continue
        if B[0][1] != 0:
            col_op(1, 0, B[0][1] // B[0][0])
            if B[0][1] != 0:
                swap_cols()
            continue
    else:  # pragma: no cover
        raise RuntimeError("SNF reduction did not terminate")

    # normalize signs
    for i in range(2):
        if B[i][i] < 0:
            for j in range(2):
                B[i][j] = -B[i][j]
                U[i][j] = -U[i][j]
    return np.array(U, dtype=object), np.array(B, dtype=object), np.array(V, dtype=object)


def _int_matrix_power(A, m):
    P = np.eye(2, dtype=object)
    A = np.array([[int(A[0][0]), int(A[0][1])], [int(A[1][0]), int(A[1][1])]], dtype=object)
    for _ in range(m):
        P = P @ A
    return P


def fixed_point_count(A, m: int) -> int:
    """|det(A^m - I)|, the number of fixed points of x -> A^m x mod 1, exactly."""
    B = _int_matrix_power(A, m) - np.eye(2, dtype=object)
    return abs(int(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]))


def fixed_points_linear_toral(A, m: int) -> np.ndarray:
    """The orbits of Fix(A^m) for x -> A x mod 1, exactly, as (m, K, 2) floats.

    With the Smith form D = U (A^m - I) V = diag(d1, d2) and D = d1 d2 =
    |det(A^m - I)| = K, every fixed point is n_0 / D with the integer
    n_0 = V (i d2, j d1) mod D; row k holds n_k / D with n_{k+1} = A n_k mod
    D, exact in int64 while 2 D^2 < 2^63, far past any orbit array that fits
    in memory.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    A = np.asarray(A)
    eig = np.linalg.eigvals(A.astype(float))
    if np.any(np.abs(np.abs(eig) - 1.0) < 1e-9):
        raise NonHyperbolicMatrix("matrix has an eigenvalue of modulus 1")
    count = fixed_point_count(A, m)
    _, Dm, V = smith_normal_form_2x2(_int_matrix_power(A, m) - np.eye(2, dtype=object))
    d1, d2 = int(Dm[0, 0]), int(Dm[1, 1])
    D = d1 * d2
    assert D == count
    Vd = np.array([[int(v) % D for v in row] for row in V], dtype=np.int64)
    Ai = np.array(A, dtype=np.int64)
    i, j = np.meshgrid(np.arange(d1, dtype=np.int64) * d2,
                       np.arange(d2, dtype=np.int64) * d1, indexing="ij")
    n = np.stack([i.ravel(), j.ravel()], axis=1) @ Vd.T % D
    orbit = np.empty((m, D, 2))
    for k in range(m):
        orbit[k] = n / D
        n = n @ Ai.T % D
    return orbit


def _newton_fixed_points(sys: MapSystem, orbit):
    """Newton in orbit space for all period-m points at once.

    Solves x_{k+1} = T(x_k) (indices mod m) for whole orbit sequences
    starting from the seed orbits (m, K, 2); a pseudo-orbit seed keeps the
    Newton basin uniform in m, unlike Newton on T^m(x) - x whose basins
    shrink like the fixed-point spacing.  Updates orbit in place and returns
    (x_0 points, DT^m at x_0, converged orbits, det DT^m at x_0 as the
    product of the per-step Jacobian determinants).
    """
    m, K = orbit.shape[0], orbit.shape[1]
    eye = np.broadcast_to(np.eye(2), (K, 2, 2))
    M = None
    for _ in range(50):
        F = np.empty_like(orbit)
        P = np.empty((m, K, 2, 2))
        for k in range(m):
            F[k] = _torus_diff(orbit[(k + 1) % m], sys.forward(orbit[k]))
            P[k] = sys.jacobian(orbit[k])
        # suffix products;  S ends as DT^m(x_0)
        S = eye.copy()
        w = np.zeros((K, 2))
        for k in range(m - 1, -1, -1):
            w = w + (S @ F[k][..., None])[..., 0]
            S = S @ P[k]
        # per-step residual margin keeps the composed T^m residual under NEWTON_TOL
        if np.max(np.abs(F)) <= 0.05 * NEWTON_TOL:
            M = S
            break
        # Newton step: delta_{k+1} = P_k delta_k - F_k, cyclic closure at m
        delta = -np.linalg.solve(eye - S, w[..., None])[..., 0]
        for k in range(m):
            orbit[k] = np.mod(orbit[k] + delta, 1.0)
            if k < m - 1:
                delta = (P[k] @ delta[..., None])[..., 0] - F[k]
    else:
        raise NewtonDiverged("orbit Newton exceeded 50 iterations")
    jac_det = np.ones(K)
    for Pk in P:
        jac_det *= Pk[:, 0, 0] * Pk[:, 1, 1] - Pk[:, 0, 1] * Pk[:, 1, 0]
    return orbit[0], M, orbit, jac_det


def periodic_points(sys: MapSystem, m: int) -> PeriodicPointSet:
    """Fixed points of T^m for a torus map T x = A x + (periodic part) mod 1.

    Every orbit of Fix(T^m) is seeded with the exact lattice orbit of the
    linear part A and solved by one Newton jump on sys itself; the points
    are folded onto [0, 1), checked and sorted, with g^(m) and the
    invariants of DT^m (linear_invariants) taken from the converged orbit.
    """
    if sys.linear_part is None:
        raise ValueError("periodic_points requires a builtin torus map")
    X, derivs, orbit, jac_det = _newton_fixed_points(
        sys, fixed_points_linear_toral(sys.linear_part, m))
    # np.mod(x, 1.0) of a tiny negative x rounds to exactly 1.0; fold it onto
    # 0.0 so stored points lie in [0, 1)
    X = np.where(X < 1.0, X, 0.0)

    lam, nu, fix_det = linear_invariants(derivs, jac_det)

    if len(X) > 1:
        tree = cKDTree(X, boxsize=1.0)
        pairs = tree.query_pairs(DEDUPE_RADIUS)
        if pairs:
            i, j = next(iter(pairs))
            raise CollisionDetected(f"points {X[i]} and {X[j]} merged")

    # g^(m) from the converged orbit values
    weights = np.ones(X.shape[0])
    for k in range(m):
        weights *= np.asarray(sys.weight(orbit[k]))
    order = np.lexsort((X[:, 1], X[:, 0]))
    return PeriodicPointSet(m, X[order], derivs[order], weights[order], jac_det[order],
                            lam[order], nu[order], fix_det[order])
