"""Spectral-radius bound estimators and their cross checks.

Two independent routes to the same growth rate are implemented: a Monte
Carlo integral route (rho) and a periodic-orbit pressure route (the
variational Q).  One draw and orbit walk per period (sample_period) gives
rho, the sampled sups R of the Appendix-B inequality and the negative
control.  Cover and partition-of-unity routes give the starred expressions;
all m-th-root limits are extrapolated by log-linear least squares over the
largest four m values, with the residual always reported.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    BudgetExceeded,
    CrossCheckFailed,
    EmptyWitness,
    InequalityViolated,
)
from .maps import (
    MapSystem,
    hyperbolicity_exponents,
    smooth_bump,
    weight_floor,
    weight_product,
)

EXTRAPOLATION_POINTS = 4
POOR_FIT_RESIDUAL = 0.1
DEFAULT_CROSS_TOL = 0.05
PRUNE_SUP = 1e-14
T_GRID = (1.0, 2.0, math.inf)
# R(m, t) is a sup over a torus grid and R_SAMPLES random points
R_SAMPLES = 2048
R_GRID_SIDE = math.ceil(math.sqrt(R_SAMPLES))
# appendixB_check compares rho(m) with min_t R(m, t) for m up to this
APPENDIX_B_M_MAX = 6
# the cover and partition routes enumerate itineraries, whose number grows
# exponentially in m; bound_table runs them up to this m
STAR_M_MAX = 4
# q_variational substitutes the floor sqrt(g^2 + 1/n^2) at this n for a weight
# that vanishes on some periodic orbit
WEIGHT_FLOOR_N = 100


def _torus_grid(side: int) -> np.ndarray:
    """Cell centres of the side x side grid on the torus, (side^2, 2)."""
    t = (np.arange(side) + 0.5) / side
    return np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)


def _integrand(sys, p, q, m, X, det_unstable=False):
    """|g^(m)| * lambda^{(p,q,m)} at X, optionally over |det DT^m|_{E^u}|,
    and det DT^m at X."""
    lam, nu, weights, jac_det = hyperbolicity_exponents(sys, X, m)
    val = np.abs(weights) * np.maximum(lam**p, nu**q)
    if det_unstable:
        val = val / nu  # d_u = 1: |det DT^m|_{E^u}| = nu exactly
    return val, jac_det


def sample_period(sys: MapSystem, p: float, q: float, m: int, n_samples: int,
                  seed: int) -> dict:
    """rho(m), its standard error and R(m, t) (key R_t<t>, t in T_GRID) from
    one orbit walk: the mean of |g^(m)| lambda^{(p,q,m)} over the first
    n_samples of max(n_samples, R_SAMPLES) points drawn from default_rng(seed),
    and the sup of |det DT^m|^{-1/t} times it over the R_GRID_SIDE^2 torus
    grid and the first R_SAMPLES of those points (t = inf drops the det)."""
    if not (q <= 0.0 <= p):
        raise ValueError("q <= 0 <= p required")
    grid = _torus_grid(R_GRID_SIDE)
    draw = np.random.default_rng(seed).uniform(0.0, 1.0, size=(max(n_samples, R_SAMPLES), 2))
    X = np.vstack([grid, draw])
    vals, dets = _integrand(sys, p, q, m, X)
    mc = vals[len(grid):len(grid) + n_samples]
    sup, dets = vals[:len(grid) + R_SAMPLES], np.abs(dets[:len(grid) + R_SAMPLES])
    R = {f"R_t{t:g}": float(np.max(sup if math.isinf(t) else sup * dets ** (-1.0 / t)))
         for t in T_GRID}
    return {"rho": float(np.mean(mc)),
            "rho_stderr": float(np.std(mc) / math.sqrt(n_samples)), **R}


def log_linear_fit(ms, logs) -> dict:
    """Growth rate exp(slope) of the least-squares line through the
    (m, log value) pairs with the largest EXTRAPOLATION_POINTS m.

    ms must be increasing.  Residual is the RMS misfit of the line; a
    residual above POOR_FIT_RESIDUAL sets the poor_fit flag.
    """
    if len(ms) < EXTRAPOLATION_POINTS:
        raise ValueError(f"need at least {EXTRAPOLATION_POINTS} values of m")
    ms = np.asarray(ms, dtype=float)[-EXTRAPOLATION_POINTS:]
    logs = np.asarray(logs, dtype=float)[-EXTRAPOLATION_POINTS:]
    slope, intercept = np.polyfit(ms, logs, 1)
    resid = float(np.sqrt(np.mean((slope * ms + intercept - logs) ** 2)))
    poor = resid > POOR_FIT_RESIDUAL
    if poor:
        warnings.warn(f"poor log-linear fit, residual {resid:.3f}", stacklevel=2)
    return {
        "estimate": float(np.exp(slope)),
        "slope": float(slope),
        "residual": resid,
        "poor_fit": poor,
    }


# ---------------------------------------------------------------------------
# cover route (Q_*)
# ---------------------------------------------------------------------------


def _cell_witnesses(k: int, per_cell: int) -> np.ndarray:
    """Deterministic low-discrepancy grid of witnesses inside each cell of the
    k x k tiling of the torus, cell by cell."""
    side = max(2, int(math.ceil(math.sqrt(per_cell))))
    t = (np.arange(side) + 0.5) / side * 2.0 - 1.0  # (-1, 1)
    local = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    # golden-ratio shift decorrelates witness grids from the cell lattice
    local = (local + np.array([0.6180339887498949, 0.2548776662466927])) % 2.0 - 1.0
    pts = (_torus_grid(k)[:, None, :] + local[None, :, :] * (0.5 / k)) % 1.0
    return pts.reshape(-1, 2)


def q_star_cover(sys: MapSystem, p: float, q: float, k: int, m: int,
                 n_samples: int = 64) -> dict:
    """Itinerary sum Q_*(T, g, W, m) over the k x k tiling W of the torus,
    with the itinerary, witness and thin (fewer than 3 witnesses) counts.

    Each witness gets its cell floor(k y) mod k at the steps 0..m-1 (mod k
    folds a coordinate that % 1.0 rounded up to 1.0); the witnesses that
    share a cell sequence make one itinerary, whose value is the largest
    |g^(m)| lambda^{(p,q,m)} / |det DT^m|_{E^u}| over them.  The cells tile
    the torus, so each witness lies in exactly one itinerary: no proper
    subfamily covers the witnesses, and Q_* is the sum over all of them.
    """
    if not (q <= 0.0 <= p):
        raise ValueError("q <= 0 <= p required")
    W = _cell_witnesses(k, n_samples)
    orbit = [W]
    for _ in range(m - 1):
        orbit.append(sys.forward(orbit[-1]))
    codes = np.floor(k * np.hstack(orbit)).astype(np.int64) % k
    _, group, counts = np.unique(codes, axis=0, return_inverse=True, return_counts=True)
    H, _ = _integrand(sys, p, q, m, W, det_unstable=True)
    sups = np.zeros(len(counts))
    np.maximum.at(sups, group.ravel(), H)
    thin = int(np.count_nonzero(counts < 3))
    if thin > 0:
        warnings.warn(
            f"{thin}/{len(counts)} itineraries have fewer than 3 witnesses",
            EmptyWitness,
        )
    return {"m": m, "q_star": math.fsum(sups), "itineraries": len(counts),
            "witnesses": len(W), "thin": thin}


# ---------------------------------------------------------------------------
# partition-of-unity route (rho_*)
# ---------------------------------------------------------------------------


def make_torus_partition(k: int, width_factor: float = 0.75):
    """k^2 smooth bumps on the torus summing to 1 exactly (normalized)."""
    centers = (np.arange(k) + 0.5) / k
    w = width_factor / k

    def bump_1d(t, c):
        d = t - c
        d = d - np.round(d)
        return smooth_bump(d / w)

    def total_1d(t):
        return sum(bump_1d(t, c) for c in centers)

    phis = []
    for ci in centers:
        for cj in centers:
            def phi(x, ci=ci, cj=cj):
                num = bump_1d(x[:, 0], ci) * bump_1d(x[:, 1], cj)
                den = total_1d(x[:, 0]) * total_1d(x[:, 1])
                return num / den
            phis.append(phi)
    return phis


def rho_star_partition(sys: MapSystem, p: float, q: float, phis, m: int,
                       n_grid: int = 48, budget: int = 200000) -> dict:
    """Partition-of-unity sum rho_*(T, g, Phi, m) with sampled sup norms.

    Products along itineraries are pruned once their sampled sup drops below
    1e-14 (phi <= 1, so pruned branches cannot recover).
    """
    if not (q <= 0.0 <= p):
        raise ValueError("q <= 0 <= p required")
    X = _torus_grid(n_grid)
    total = sum(np.asarray(phi(X)) for phi in phis)
    if np.max(np.abs(total - 1.0)) > 1e-10:
        raise ValueError("phis do not sum to 1 on the check grid")
    tables = []
    Y = X.copy()
    for _ in range(m):
        tables.append(np.stack([np.asarray(phi(Y)) for phi in phis]))
        Y = sys.forward(Y)
    F, _ = _integrand(sys, p, q, m, X, det_unstable=True)

    n_phi = len(phis)
    nodes = []
    for e in range(n_phi):
        vals = tables[0][e]
        idx = np.flatnonzero(vals >= PRUNE_SUP)
        if idx.size:
            nodes.append((idx, vals[idx]))
    for k in range(1, m):
        nxt = []
        for idx, vals in nodes:
            tk = tables[k][:, idx]
            for e in range(n_phi):
                v = vals * tk[e]
                keep = v >= PRUNE_SUP
                if np.any(keep):
                    nxt.append((idx[keep], v[keep]))
            if len(nxt) > budget:
                raise BudgetExceeded(f"partition itineraries exceeded {budget}")
        nodes = nxt
    value = math.fsum(float(np.max(vals * F[idx])) for idx, vals in nodes)
    return {"m": m, "value": value, "n_terms": len(nodes)}


# ---------------------------------------------------------------------------
# pressure and variational routes
# ---------------------------------------------------------------------------


def pressure_periodic(pts_by_m: dict) -> dict:
    """Topological pressure P_m = (1/m) log |Fix(T^m)|; -inf marker if empty."""
    return {m: float(np.log(len(pts)) / m) if len(pts) else -math.inf
            for m, pts in sorted(pts_by_m.items())}


def q_variational(sys: MapSystem, pts_by_m: dict, m_range, p: float, q: float) -> dict:
    """Pressure-route estimate of Q^{p,q} from periodic sums of the
    potential |g^(m)| lambda^{(p,q,m)} / |det DT^m|_{E^u}| over the periods
    m_range, with the exponents (lambda, nu) the sets of pts_by_m carry.

    If the weight vanishes somewhere on the sampled orbits the positive
    floor sqrt(g^2 + 1/n^2), n = WEIGHT_FLOOR_N, is substituted and n reported.
    """
    if not (q <= 0.0 <= p):
        raise ValueError("q <= 0 <= p required")
    ms, sums = [], []
    floor_used = None
    for m in m_range:
        pts = pts_by_m[m]
        lam_pq = np.maximum(pts.lam**p, pts.nu**q)
        g_m = np.abs(pts.weights)
        if np.min(g_m) < 1e-12:
            floor_used = WEIGHT_FLOOR_N
            g_n = weight_floor(sys.weight, WEIGHT_FLOOR_N)
            g_m = weight_product(sys.with_weight(g_n, tag=f"floor{WEIGHT_FLOOR_N}"),
                                 pts.points, m)
        S = math.fsum(g_m * lam_pq / pts.nu)
        ms.append(m)
        sums.append(math.log(S))
    return {
        "per_m": [{"m": m, "log_sum": s, "pressure": s / m} for m, s in zip(ms, sums)],
        **log_linear_fit(ms, sums),
        "weight_floor_n": floor_used,
    }


def compare_routes(rho_report: dict, q_report: dict) -> dict:
    gap = abs(math.log(rho_report["estimate"]) - math.log(q_report["estimate"]))
    report = {
        "rho_estimate": rho_report["estimate"],
        "q_estimate": q_report["estimate"],
        "log_gap": gap,
        "tol": DEFAULT_CROSS_TOL,
        "pass": gap <= DEFAULT_CROSS_TOL,
        "rho_route": rho_report,
        "q_route": q_report,
    }
    if not gap <= DEFAULT_CROSS_TOL:  # a NaN gap fails too
        raise CrossCheckFailed(f"log gap {gap:.4f} exceeds {DEFAULT_CROSS_TOL}", data=report)
    return report


# ---------------------------------------------------------------------------
# the per-m table and the two checks that read it
# ---------------------------------------------------------------------------


def bound_table(sys: MapSystem, pts_by_m: dict, p: float, q: float, m_range,
                n_samples: int = 4096, seed: int = 0) -> tuple:
    """Per-m rows: rho(m) with its standard error, R(m, t) for each t in T_GRID
    under the key R_t<t>, and the topological pressure from |Fix(T^m)|; and
    the cover counts of q_star_cover (m, itineraries, witnesses, thin) for
    each m <= STAR_M_MAX.

    Rows with m <= STAR_M_MAX also carry the cover value q_star over the
    4 x 4 tiling and the partition value rho_*.  Row m takes rho and R from
    one sample_period draw and walk at seed + m, so it does not depend on
    which other m are in the table; kitaev_crosscheck and appendixB_check
    read these rows instead of sampling again.
    """
    pressure = pressure_periodic({m: pts_by_m[m] for m in m_range})
    phis = make_torus_partition(3)
    rows, covers = [], []
    for m in m_range:
        row = {"m": m, **sample_period(sys, p, q, m, n_samples, seed + m),
               "pressure": pressure[m]}
        if m <= STAR_M_MAX:
            cover = q_star_cover(sys, p, q, 4, m)
            row["q_star"] = cover.pop("q_star")
            row["rho_star"] = rho_star_partition(sys, p, q, phis, m)["value"]
            covers.append(cover)
        rows.append(row)
    return rows, covers


def appendixB_check(rows, p: float, q: float) -> dict:
    """rho^{p,q}(m) <= min_t R^{p,q,t}(m) + 3 sigma_MC for each bound_table row
    with m <= APPENDIX_B_M_MAX.

    Valid as a finite-m comparison on volume-one domains.  Raises
    InequalityViolated with the offending row on failure.
    """
    out = []
    for row in (r for r in rows if r["m"] <= APPENDIX_B_M_MAX):
        Rmin = min(row[f"R_t{t:g}"] for t in T_GRID)
        passed = row["rho"] <= Rmin + 3.0 * row["rho_stderr"] + 1e-12
        out.append({"m": row["m"], "rho": row["rho"], "stderr": row["rho_stderr"],
                    "R_min": Rmin, "pass": passed})
    ok = all(r["pass"] for r in out)
    report = {"p": p, "q": q, "t_grid": list(T_GRID), "rows": out, "pass": ok}
    if not ok:
        raise InequalityViolated("rho(m) > min_t R(m) + 3 sigma", data=report)
    return report


def kitaev_crosscheck(sys: MapSystem, pts_by_m: dict, p: float, q: float, rows) -> dict:
    """Assert the integral route (rho of the rows, each with the keys m, rho
    and rho_stderr of a bound_table row) and the variational route over the
    same m agree in log scale, to DEFAULT_CROSS_TOL.

    A rho that vanishes (the weight's iterates vanish on the samples) has no
    log: the check fails with a reason that names the m, and the report
    holds the variational route but no estimate, gap or fit of the integral
    route.
    """
    per_m = {r["m"]: r["rho"] for r in rows}
    stderr = {r["m"]: r["rho_stderr"] for r in rows}
    vanish = [m for m, rho in per_m.items() if not rho > 0.0]
    if vanish:
        q_report = q_variational(sys, pts_by_m, per_m, p, q)
        reason = f"rho vanishes at m = {vanish}: the weight's iterates vanish on the samples"
        raise CrossCheckFailed(reason, data={
            "rho_estimate": None, "q_estimate": q_report["estimate"], "log_gap": None,
            "tol": DEFAULT_CROSS_TOL, "pass": False, "reason": reason,
            "rho_route": {"per_m": per_m, "stderr": stderr}, "q_route": q_report,
        })
    rho_report = log_linear_fit(list(per_m), np.log(list(per_m.values())))
    rho_report["per_m"] = per_m
    rho_report["stderr"] = stderr
    q_report = q_variational(sys, pts_by_m, per_m, p, q)
    return compare_routes(rho_report, q_report)
