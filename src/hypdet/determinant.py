"""Dynamical traces, the truncated Fredholm determinant, and zeta functions.

The determinant d(z) = exp(-sum_m z^m/m tr_m) is expanded into polynomial
coefficients through the Newton recursion from power sums.  The zeta
functions (zeta_direct, zeta_product) are two routes to the same series;
commands do not run them yet, the tests compare them.

Every sum runs over Fix(T^m), passed in as the {m: PeriodicPointSet} mapping
a run computes once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import IllConditionedRoot, OrientationNotTrivial
from .maps import MapSystem
from .orbits import PeriodicPointSet

BACKWARD_ERROR_THRESHOLD = 1e-6
CLUSTER_RTOL = 1e-6
NEAR_BOUNDARY_FRACTION = 0.9
# periods whose exponents give the validity radius
VALIDITY_M_RANGE = range(4, 11)


@dataclass(frozen=True)
class TraceSeries:
    traces: np.ndarray  # tr_m for m = 1..N
    order: int
    provenance: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.traces)):
            raise ValueError("trace series has non-finite entries")


@dataclass(frozen=True)
class DeterminantPoly:
    coeffs: np.ndarray  # c_0..c_N of the truncated determinant
    validity_radius: float
    coarse_radius: float


def dynamical_trace(pts: PeriodicPointSet) -> float:
    """sum over T^m x = x of g^(m)(x) / |det(Id - DT^m(x))|."""
    return math.fsum(pts.weights / pts.fix_det)


def trace_series(sys: MapSystem, pts_by_m: dict, N: int) -> TraceSeries:
    """tr_m for m = 1..N from the sets of pts_by_m, the fixed points of sys."""
    if N < 1:
        raise ValueError("N >= 1 required")
    traces = np.array([dynamical_trace(pts_by_m[m]) for m in range(1, N + 1)])
    prov = f"{sys.name}|eps={sys.params.get('eps', 0.0)}|weight={sys.params.get('weight', 'one')}"
    return TraceSeries(traces=traces, order=N, provenance=prov)


def coeffs_from_power_sums(sums, sign: float) -> np.ndarray:
    """Coefficients of exp(sign * sum_m s_m z^m / m), truncated.

    sign = -1 gives the determinant recursion c_k = -(1/k) sum tr_j c_{k-j};
    sign = +1 the zeta recursion.
    """
    sums = np.asarray(sums, dtype=float)
    N = len(sums)
    c = np.zeros(N + 1)
    c[0] = 1.0
    for k in range(1, N + 1):
        acc = math.fsum(sums[j - 1] * c[k - j] for j in range(1, k + 1))
        c[k] = sign * acc / k
    return c


def det_coeffs_from_traces(ts: TraceSeries, radii) -> DeterminantPoly:
    """Truncated determinant from a trace series; c_0 = 1.

    radii is the (validity_radius, coarse_radius) pair from validity_radius.
    """
    vr, cr = radii
    return DeterminantPoly(coeffs=coeffs_from_power_sums(ts.traces, sign=-1.0),
                           validity_radius=vr, coarse_radius=cr)


def _eval_poly(coeffs, z):
    powers = z ** np.arange(len(coeffs))
    return np.sum(coeffs * powers), np.sum(np.abs(coeffs) * np.abs(powers))


def _cluster_roots(roots):
    """Greedy clustering at relative radius CLUSTER_RTOL; returns (center,
    count) list."""
    roots = sorted(roots, key=lambda z: (abs(z), z.real, z.imag))
    clusters = []
    for z in roots:
        for cl in clusters:
            c = np.mean(cl)
            if abs(z - c) <= CLUSTER_RTOL * max(1.0, abs(c)):
                cl.append(z)
                break
        else:
            clusters.append([z])
    return [(complex(np.mean(cl)), len(cl)) for cl in clusters]


def det_zeros(dp: DeterminantPoly, radius: float):
    """Roots of the truncation inside |z| < radius, via companion matrix.

    Each root carries the backward error |d(z)| / sum |c_k z^k|; roots with
    backward error above BACKWARD_ERROR_THRESHOLD are flagged, not dropped.  Roots within 10% of
    the validity radius are flagged near-boundary.
    """
    if np.isfinite(dp.validity_radius) and radius > dp.validity_radius:
        warnings.warn(
            f"radius {radius} exceeds validity radius {dp.validity_radius:.4g}",
            stacklevel=2,
        )
    c = dp.coeffs
    # drop numerically-zero leading (high-order) coefficients: they only add
    # spurious roots near infinity
    scale = np.max(np.abs(c))
    deg = len(c) - 1
    while deg > 0 and abs(c[deg]) < 1e-13 * scale:
        deg -= 1
    if deg == 0:
        return []
    roots = np.roots(c[: deg + 1][::-1])
    out = []
    for center, mult in _cluster_roots([complex(r) for r in roots]):
        if abs(center) >= radius:
            continue
        val, denom = _eval_poly(c[: deg + 1], center)
        backward = abs(val) / denom if denom > 0 else math.inf
        if backward > BACKWARD_ERROR_THRESHOLD:
            warnings.warn(
                f"root {center:.6g} has backward error {backward:.2e}",
                IllConditionedRoot,
                stacklevel=2,
            )
        near = (
            np.isfinite(dp.validity_radius)
            and abs(center) > NEAR_BOUNDARY_FRACTION * dp.validity_radius
        )
        out.append(
            {
                "zero": center,
                "multiplicity": mult,
                "backward_error": float(backward),
                "near_boundary": bool(near),
            }
        )
    out.sort(key=lambda r: (abs(r["zero"]), r["zero"].real, r["zero"].imag))
    return out


def zeta_direct(pts_by_m: dict, N: int) -> np.ndarray:
    """Coefficients of the zeta truncation exp(+ sum z^m/m S_m), with the
    periodic sums S_m = sum over Fix(T^m) of g^(m)."""
    sums = [math.fsum(pts_by_m[m].weights) for m in range(1, N + 1)]
    return coeffs_from_power_sums(sums, sign=+1.0)


def _series_mul(a, b, N):
    out = np.zeros(N + 1)
    for k in range(N + 1):
        out[k] = math.fsum(a[j] * b[k - j] for j in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
    return out


def _series_inv(a, N):
    # reciprocal of a power series with a[0] = 1
    inv = np.zeros(N + 1)
    inv[0] = 1.0 / a[0]
    for k in range(1, N + 1):
        inv[k] = -math.fsum(a[j] * inv[k - j] for j in range(1, min(k, len(a) - 1) + 1)) / a[0]
    return inv


def _check_orientation(pts: PeriodicPointSet):
    """Raise unless sign det(DT^m|E^u) = +1 at every periodic point.

    At x in Fix(T^m), DT^m(x) maps E^u(x) to itself, so det(DT^m|E^u) is the
    eigenvalue of larger modulus of DT^m.  The other eigenvalue has modulus
    below 1 and the stored trace is their sum, so the trace has its sign.
    """
    if np.any(pts.trace < 0):
        raise OrientationNotTrivial(
            f"sign det(DT^{pts.period}|E^u) = -1 at a periodic point"
        )


def zeta_product(pts_by_m: dict, N: int) -> np.ndarray:
    """Zeta truncation from the product of exterior-power determinants (d=2).

    Builds, for k = 0, 1, 2, the trace series with Lambda^k weights, forms
    the three determinant truncations, and combines them with exponents
    (-1)^(k + d_u + 1); with d_u = 1 this is d_0 * d_2 / d_1.
    """
    tr_k = np.zeros((3, N))
    for m in range(1, N + 1):
        pts = pts_by_m[m]
        _check_orientation(pts)
        lam0 = np.ones(len(pts))
        for k, lam in enumerate((lam0, pts.trace, pts.jac_det)):
            tr_k[k, m - 1] = math.fsum(pts.weights * lam / pts.fix_det)
    d0 = coeffs_from_power_sums(tr_k[0], sign=-1.0)
    d1 = coeffs_from_power_sums(tr_k[1], sign=-1.0)
    d2 = coeffs_from_power_sums(tr_k[2], sign=-1.0)
    num = _series_mul(d0, d2, N)
    return _series_mul(num, _series_inv(d1, N), N)


def validity_radius(sys: MapSystem, pts_by_m: dict, p: float, q: float):
    """(1/Q^{p,q}, 1/Q^{0,0}) from the variational pressure route over the
    periods VALIDITY_M_RANGE."""
    qpq = bounds.q_variational(sys, pts_by_m, VALIDITY_M_RANGE, p, q)["estimate"]
    q00 = bounds.q_variational(sys, pts_by_m, VALIDITY_M_RANGE, 0.0, 0.0)["estimate"]
    return 1.0 / qpq, 1.0 / q00


def determinant_report(ts: TraceSeries, dp: DeterminantPoly, zeros: list,
                       radius: float, pts_by_m: dict) -> dict:
    """Traces, coefficients, zeros (from det_zeros(dp, radius)) and radii,
    with the size and Newton convergence of each set of pts_by_m, as one
    JSON-ready dict."""
    return {
        "provenance": ts.provenance,
        "order": ts.order,
        "traces": ts.traces.tolist(),
        "coeffs": dp.coeffs.tolist(),
        "validity_radius": dp.validity_radius,
        "coarse_radius": dp.coarse_radius,
        "radius": radius,
        "zeros": [
            {
                "re": z["zero"].real,
                "im": z["zero"].imag,
                "multiplicity": z["multiplicity"],
                "backward_error": z["backward_error"],
                "near_boundary": z["near_boundary"],
            }
            for z in zeros
        ],
        "diagnostics": {
            "orbits": [
                {
                    "m": m,
                    "points": len(pts),
                    "prime_cycles": pts.cycles,
                    "newton_steps": pts.newton_steps,
                    "newton_residual": pts.newton_residual,
                }
                for m, pts in sorted(pts_by_m.items())
            ],
        },
    }
