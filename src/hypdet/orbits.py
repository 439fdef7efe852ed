"""Periodic points of T^m: exact lattice cycles and one Newton jump per cycle.

For a torus map T x = A x + (periodic part) mod 1 with a hyperbolic integer
matrix A, the fixed points of x -> A^m x mod 1 are the points n / D, D =
|det(A^m - I)|, enumerated exactly from the adjugate of A^m - I; their
orbits n_{k+1} = A n_k mod D are exact in integers, and so is their split
into cycles.  One representative orbit per cycle seeds a vectorized Newton
solve of the orbit equations of T itself, which gives Fix(T^m) for every
torus map, the linear one included.  Trace, determinant and g^(m) are
invariant under a cyclic shift, so each cycle's are computed once and shared
by its points (the cycle expansion of Artuso, Aurell and Cvitanovic, 1990);
the working set scales with |Fix(T^m)|, not with m |Fix(T^m)|.  Nothing is
cached: a run computes each period it needs once and passes the sets on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    CollisionDetected,
    DegenerateDirection,
    HypdetError,
    NewtonDiverged,
    NonHyperbolicMatrix,
    SingularLinearization,
)
from .maps import MapSystem

DEDUPE_RADIUS = 1e-6
UNIT_CIRCLE_MARGIN = 1e-6
# Newton stops once the per-step residual |x_{k+1} - T x_k| is below 0.05 times this
NEWTON_TOL = 1e-12
# most points, |det(A^m - I)|, a run may ask for in one period: the cat map's
# m = 16 (4.9e6 points, 0.58 GB peak and 19 s at eps 0.05, one BLAS thread on
# a 2-core x86-64 box) fits, m = 17 (1.3e7) does not
ORBIT_SIZE_MAX = 5_000_000


@dataclass(frozen=True)
class PeriodicPointSet:
    """Fixed points of T^m with the invariants of DT^m and g^(m) at each
    point, and how the Newton solve of its cycles went."""

    period: int
    points: np.ndarray  # (k, 2)
    trace: np.ndarray  # (k,) tr DT^m
    weights: np.ndarray  # (k,)
    jac_det: np.ndarray  # (k,) det DT^m
    lam: np.ndarray  # (k,) modulus of the contracting eigenvalue of DT^m
    nu: np.ndarray  # (k,) modulus of the expanding eigenvalue of DT^m
    fix_det: np.ndarray  # (k,) |det(Id - DT^m)|
    cycles: int  # cycles of exact period d | m, each solved once
    newton_steps: int
    newton_residual: float  # largest final per-step residual |x_{k+1} - T x_k|

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


def lattice_cycles(A, m: int):
    """The cycles of x -> A x mod 1 in Fix(A^m), one representative each,
    exactly: (orbit, period), orbit (m, r, 2) floats whose row k holds n_k / D
    with n_{k+1} = A n_k mod D, and period (r,) the exact periods d | m.

    With B = A^m - I and D = |det B|, x -> D x maps Fix(A^m) onto the
    subgroup {n : B n = 0 mod D} of (Z/D)^2, of order D, which the columns
    c1 = (b22, -b21) and c2 = (-b12, b11) of adj B generate (B adj B =
    det B I).  With o1 = D / gcd(D, c1) the order of c1, the quotient by
    <c1> is cyclic of order D / o1 with generator c2, so n_0 = i c1 + j c2 mod
    D, 0 <= i < o1, 0 <= j < D / o1, lists every point once.  m steps of n ->
    A n mod D in int64 (exact while 2 D^2 < 2^63) give each point's key n_1 D
    + n_2 along its orbit: the point whose key is the least on its orbit
    represents the cycle, and the first return of its key is the exact
    period.  A cycle of period d appears d times in Fix(A^m), so the periods
    sum to D.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    A = np.asarray(A)
    eig = np.linalg.eigvals(A.astype(float))
    if np.any(np.abs(np.abs(eig) - 1.0) < 1e-9):
        raise NonHyperbolicMatrix("matrix has an eigenvalue of modulus 1")
    (b11, b12), (b21, b22) = (_int_matrix_power(A, m) - np.eye(2, dtype=object)).tolist()
    D = abs(b11 * b22 - b12 * b21)
    c1, c2 = (b22 % D, -b21 % D), (-b12 % D, b11 % D)
    o1 = D // math.gcd(D, *c1)
    i = np.arange(o1, dtype=np.int64)[:, None]
    j = np.arange(D // o1, dtype=np.int64)[None, :]
    n1 = ((i * c1[0] + j * c2[0]) % D).ravel()
    n2 = ((i * c1[1] + j * c2[1]) % D).ravel()
    (a, b), (c, d) = (int(A[0, 0]), int(A[0, 1])), (int(A[1, 0]), int(A[1, 1]))
    key0 = n1 * D + n2
    rep = np.ones(D, dtype=bool)
    period = np.full(D, m, dtype=np.int16)
    for k in range(1, m):
        # (n1, n2) <- A (n1, n2) mod D, in place where the old value is spent
        t = n1 * a
        t += n2 * b
        t %= D
        n2 *= d
        n2 += n1 * c
        n2 %= D
        n1 = t
        key = n1 * D
        key += n2
        rep &= key0 <= key
        if m % k == 0:
            period[(key == key0) & (period == m)] = k
    key0, period = key0[rep], period[rep]
    if int(period.sum()) != D:
        raise HypdetError(f"the cycles of Fix(A^{m}) hold {int(period.sum())} points, not {D}")
    n = np.stack([key0 // D, key0 % D], axis=1)
    Ai = np.array(A, dtype=np.int64)
    orbit = np.empty((m, n.shape[0], 2))
    for k in range(m):
        orbit[k] = n / D
        n = n @ Ai.T % D
    return orbit, period


def _newton_fixed_points(sys: MapSystem, orbit):
    """Newton in orbit space for the seed orbits (m, r, 2) at once.

    Solves x_{k+1} = T(x_k) (indices mod m) for whole orbit sequences; a
    pseudo-orbit seed keeps the Newton basin uniform in m, unlike Newton on
    T^m(x) - x whose basins shrink like the fixed-point spacing.  Updates
    orbit in place and returns (DT^m at x_0, det DT^m at x_0 as the product
    of the per-step Jacobian determinants, the Newton steps taken, the
    largest final per-step residual).

    Once Newton has moved the seeds, the evaluation whose per-step residual
    meets the tolerance still has its correction applied: the orbit error it
    removes would come back in T^m(x) - x amplified by up to nu, about 2.6^m
    for the cat map (4e-11 at m = 8 and eps 0.04 without it, 1e-12 with
    it).  Seeds that meet the tolerance as they are, the exact lattice
    points of the cat map, are kept.  DT^m and the residual are those of
    the last evaluation.
    """
    m, r = orbit.shape[0], orbit.shape[1]
    eye = np.broadcast_to(np.eye(2), (r, 2, 2))
    F = np.empty_like(orbit)
    P = np.empty((m, r, 2, 2))
    for steps in range(50):
        for k in range(m):
            F[k] = _torus_diff(orbit[(k + 1) % m], sys.forward(orbit[k]))
            P[k] = sys.jacobian(orbit[k])
        # suffix products;  S ends as DT^m(x_0)
        S = eye.copy()
        w = np.zeros((r, 2))
        for k in range(m - 1, -1, -1):
            w = w + (S @ F[k][..., None])[..., 0]
            S = S @ P[k]
        residual = float(np.max(np.abs(F), initial=0.0))
        converged = residual <= 0.05 * NEWTON_TOL
        if converged and steps == 0:
            break
        # Newton step: delta_{k+1} = P_k delta_k - F_k, cyclic closure at m
        delta = -np.linalg.solve(eye - S, w[..., None])[..., 0]
        for k in range(m):
            orbit[k] = np.mod(orbit[k] + delta, 1.0)
            if k < m - 1:
                delta = (P[k] @ delta[..., None])[..., 0] - F[k]
        if converged:
            break
    else:
        raise NewtonDiverged("orbit Newton exceeded 50 iterations")
    jac_det = np.ones(r)
    for Pk in P:
        jac_det *= Pk[:, 0, 0] * Pk[:, 1, 1] - Pk[:, 0, 1] * Pk[:, 1, 0]
    return S, jac_det, steps, residual


def periodic_points(sys: MapSystem, m: int) -> PeriodicPointSet:
    """Fixed points of T^m for a torus map T x = A x + (periodic part) mod 1.

    Each cycle of Fix(T^m) is seeded with the exact lattice orbit of its
    representative under the linear part A (lattice_cycles) and solved by
    one Newton jump on sys itself; a cycle of exact period d < m is solved
    inside its m-step seed.  g^(m) and the invariants of DT^m
    (linear_invariants) are taken once per cycle and shared by its d
    points, which are folded onto [0, 1), checked for collisions all
    together and sorted.
    """
    if sys.linear_part is None:
        raise ValueError("periodic_points requires a builtin torus map")
    orbit, period = lattice_cycles(sys.linear_part, m)
    derivs, jac_det, steps, residual = _newton_fixed_points(sys, orbit)
    lam, nu, fix_det = linear_invariants(derivs, jac_det)
    trace = np.trace(derivs, axis1=1, axis2=2)
    # g^(m) from the converged orbit values
    weights = np.ones(orbit.shape[1])
    for k in range(m):
        weights *= np.asarray(sys.weight(orbit[k]))

    # point k of each cycle, k below its period
    k, c = np.nonzero(np.arange(m)[:, None] < period)
    X = orbit[k, c]
    del orbit, k
    # np.mod(x, 1.0) of a tiny negative x rounds to exactly 1.0; fold it onto
    # 0.0 so stored points lie in [0, 1)
    X = np.where(X < 1.0, X, 0.0)
    # every point, so two cycles that converged to one are caught too
    if len(X) > 1:
        tree = cKDTree(X, boxsize=1.0)
        pairs = tree.query_pairs(DEDUPE_RADIUS)
        del tree
        if pairs:
            i, j = next(iter(pairs))
            raise CollisionDetected(f"points {X[i]} and {X[j]} merged")

    order = np.lexsort((X[:, 1], X[:, 0]))
    c = c[order]
    return PeriodicPointSet(m, X[order], trace[c], weights[c], jac_det[c], lam[c], nu[c],
                            fix_det[c], cycles=period.size, newton_steps=steps,
                            newton_residual=residual)
