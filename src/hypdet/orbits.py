"""Periodic points of T^m: exact lattice enumeration and Newton continuation.

For a hyperbolic integer matrix A the fixed points of x -> A^m x mod 1 are
the residues of (A^m - I)^{-1} Z^2 in [0,1)^2, enumerated exactly through the
Smith normal form.  Perturbed maps are handled by continuing each lattice
point along an eps homotopy with a (vectorized) Newton iteration.  Nothing
is cached: a run computes each period it needs once and passes the sets on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    CollisionDetected,
    NewtonDiverged,
    NonHyperbolicMatrix,
    SingularLinearization,
)
from .maps import MapSystem, builtin_perturbed_cat, weight_product

DEDUPE_RADIUS = 1e-6
UNIT_CIRCLE_MARGIN = 1e-6
# Newton stops once the composed T^m residual is below this
NEWTON_TOL = 1e-12
# largest orbit array, m |det(A^m - I)| points, a run may ask for: the cat
# map's m = 14 (9.9e6, 1.2 GB peak at eps 0.05) fits, m = 15 (2.8e7) does not
ORBIT_SIZE_MAX = 20_000_000


@dataclass(frozen=True)
class PeriodicPointSet:
    """Fixed points of T^m with DT^m and g^(m) at each point."""

    period: int
    points: np.ndarray  # (k, 2)
    derivatives: np.ndarray  # (k, 2, 2)
    weights: np.ndarray  # (k,)

    def __len__(self):
        return self.points.shape[0]


def _torus_diff(a, b):
    d = a - b
    return d - np.round(d)


def _check_hyperbolic_fixed(derivs):
    eigs = np.linalg.eigvals(derivs)
    if np.any(np.abs(np.abs(eigs) - 1.0) < UNIT_CIRCLE_MARGIN):
        raise SingularLinearization(
            "DT^m has an eigenvalue within 1e-6 of the unit circle"
        )


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


def fixed_points_linear_toral(A, m: int) -> PeriodicPointSet:
    """All solutions of (A^m - I) x in Z^2 inside [0,1)^2, exactly.

    Count equals |det(A^m - I)|; the weights are 1 (periodic_points puts
    g^(m) on them).
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    A = np.asarray(A)
    eig = np.linalg.eigvals(A.astype(float))
    if np.any(np.abs(np.abs(eig) - 1.0) < 1e-9):
        raise NonHyperbolicMatrix("matrix has an eigenvalue of modulus 1")
    Am = _int_matrix_power(A, m)
    count = fixed_point_count(A, m)
    _, D, V = smith_normal_form_2x2(Am - np.eye(2, dtype=object))
    d1, d2 = int(D[0, 0]), int(D[1, 1])
    # solutions: x = V z mod 1 with z = (i/d1, j/d2); D = U (A^m - I) V acts on
    # z = V^{-1} x, so enumerate z and push forward by V
    Vf = np.array(V, dtype=float)
    i = np.arange(d1, dtype=float) / d1
    j = np.arange(d2, dtype=float) / d2
    Z = np.stack(np.meshgrid(i, j, indexing="ij"), axis=-1).reshape(-1, 2)
    X = np.mod(Z @ Vf.T, 1.0)
    assert X.shape[0] == count

    Amf = np.array([[float(Am[0, 0]), float(Am[0, 1])], [float(Am[1, 0]), float(Am[1, 1])]])
    derivs = np.broadcast_to(Amf, (X.shape[0], 2, 2)).copy()
    _check_hyperbolic_fixed(derivs[:1])  # constant derivative: one check suffices
    order = np.lexsort((X[:, 1], X[:, 0]))
    return PeriodicPointSet(period=m, points=X[order], derivatives=derivs[order],
                            weights=np.ones(X.shape[0]))


def _newton_fixed_points(sys: MapSystem, orbit):
    """Newton in orbit space for all period-m points at once.

    Solves x_{k+1} = T(x_k) (indices mod m) for whole orbit sequences
    starting from the seed orbits (m, K, 2); a pseudo-orbit seed keeps the
    Newton basin uniform in m, unlike Newton on T^m(x) - x whose basins
    shrink like the fixed-point spacing.  Returns (x_0 points, DT^m at x_0,
    converged orbits).
    """
    orbit = orbit.copy()
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
    return orbit[0], M, orbit


def continue_periodic_points(
    sys: MapSystem,
    ref: PeriodicPointSet,
    eps_path=None,
) -> PeriodicPointSet:
    """Continue lattice-exact fixed points of T^m along an eps homotopy.

    sys must be a builtin torus map carrying ``eps``/``seed`` params; maps at
    intermediate eps values are rebuilt from the registry.  The default path
    jumps directly for |eps| <= 0.02 and uses steps of 0.01 otherwise.
    """
    m = ref.period
    eps_target = float(sys.params.get("eps", 0.0))
    seed = int(sys.params.get("seed", 0))
    if eps_path is None:
        if abs(eps_target) <= 0.02:
            eps_path = [eps_target]
        else:
            n_steps = int(np.ceil(abs(eps_target) / 0.01))
            eps_path = list(np.linspace(eps_target / n_steps, eps_target, n_steps))
    if eps_path and abs(eps_path[-1] - eps_target) > 1e-15:
        raise ValueError("eps_path must end at the target eps")

    # seed with the exact lattice orbits of the linear reference map
    A = np.asarray(sys.linear_part, dtype=float)
    orbit = np.empty((m, len(ref), 2))
    orbit[0] = ref.points
    for k in range(1, m):
        orbit[k] = np.mod(orbit[k - 1] @ A.T, 1.0)
    derivs = None
    for eps_k in eps_path:
        sys_k = builtin_perturbed_cat(eps_k, seed)
        X, derivs, orbit = _newton_fixed_points(sys_k, orbit)
    # np.mod(x, 1.0) of a tiny negative x rounds to exactly 1.0; fold it onto
    # 0.0 so stored points lie in [0, 1)
    X = np.where(X < 1.0, X, 0.0)

    inv_norm = np.linalg.norm(np.linalg.inv(np.eye(2) - derivs), axis=(1, 2))
    if np.any(inv_norm > 1e10):
        raise SingularLinearization("(Id - DT^m)^{-1} norm exceeds 1e10")
    _check_hyperbolic_fixed(derivs)

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
    return PeriodicPointSet(m, X[order], derivs[order], weights[order])


def periodic_points(sys: MapSystem, m: int) -> PeriodicPointSet:
    """Fixed points of T^m for a builtin torus map.

    Linear maps are enumerated exactly; perturbed maps are continued from the
    eps = 0 lattice points.
    """
    if sys.linear_part is None:
        raise ValueError("periodic_points requires a builtin torus map")
    ref = fixed_points_linear_toral(sys.linear_part, m)
    if float(sys.params.get("eps", 0.0)) == 0.0:
        return PeriodicPointSet(m, ref.points, ref.derivatives,
                                weight_product(sys, ref.points, m))
    return continue_periodic_points(sys, ref)
