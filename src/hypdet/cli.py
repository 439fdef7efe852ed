"""Command line driver: resonances | bounds | aniso | report.

Exit codes: 0 pass, 2 check failed, 3 config error, 4 numerical failure.
Config is a JSON file (configs/ holds examples, README.md the schema);
--seed and --out override the config values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bd
from . import collocation as coll
from . import determinant as det
from . import maps, orbits, reports
from .aniso import blocks as ablocks
from .aniso import partition as apart
from .errors import CrossCheckFailed, HypdetError, InequalityViolated, MissingArtifacts

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

# RunConfig fields that live in the nested "map" object, by their key there
MAP_KEYS = {"map_id": "id", "eps": "eps", "map_seed": "seed"}
# the map ids each command runs; the first is the one a config without an id gets
COMMAND_MAPS = {
    "resonances": ("cat", "perturbed_cat"),
    "bounds": ("cat", "perturbed_cat"),
    "aniso": ("chart",),
}


@dataclass
class RunConfig:
    map_id: str = ""  # empty: the command's own map, COMMAND_MAPS[command][0]
    eps: float = 0.0
    map_seed: int = 0
    weight: dict = field(default_factory=lambda: {"id": "one"})
    p: float = 1.0
    q: float = -1.0
    N_det: int = 14
    m_max: int = 8
    mc_samples: int = 4096
    n_max_aniso: int = 8
    n_freq: int = 32
    det_radius: float = 1.5
    match_tol: float = 1e-4
    top_k: int = 48
    young_trials: int = 100
    r_smoothness: float = math.inf
    negative_control: bool = False
    seed: int = 7
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        types = typing.get_type_hints(cls)
        if not isinstance(d, dict):
            raise ValueError(f"a config is a JSON object, got {d!r}")
        m = d.get("map", {})
        if not isinstance(m, dict):
            raise ValueError(f"map must be a JSON object, got {m!r}")
        # a misspelt key would otherwise run the default without a word
        top = {k for k in types if k not in MAP_KEYS} | {"map"}
        unknown = ([k for k in d if k not in top]
                   + [f"map.{k}" for k in m if k not in MAP_KEYS.values()])
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        given = {**{name: m[key] for name, key in MAP_KEYS.items() if key in m},
                 **{k: v for k, v in d.items() if k != "map"}}
        cfg = cls(**{name: _typed(name, types[name], v) for name, v in given.items()})
        cfg.validate()
        return cfg

    def validate(self):
        if not (self.q < 0.0 < self.p):
            raise ValueError(f"require q < 0 < p, got p={self.p}, q={self.q}")
        # every integer setting except the seeds is a count or an order, and
        # numpy's generators take no negative seed
        for name, tp in typing.get_type_hints(type(self)).items():
            least = 0 if name.endswith("seed") else 1
            if tp is int and getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        # a radius or tolerance of 0 or less matches nothing, and so passes
        for name in ("det_radius", "match_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # the bounds growth-rate fit reads the last EXTRAPOLATION_POINTS m, above m = 1
        if self.m_max < bd.EXTRAPOLATION_POINTS + 1:
            raise ValueError(f"m_max must be at least {bd.EXTRAPOLATION_POINTS + 1}, "
                             f"got {self.m_max}")
        # builtin maps are analytic; a finite r can be declared for the warning
        if math.isfinite(self.r_smoothness) and self.p - self.q >= self.r_smoothness - 1.0:
            warnings.warn(
                f"p - q = {self.p - self.q} >= r - 1 = {self.r_smoothness - 1.0}; "
                "spectral hypotheses not satisfied, continuing anyway"
            )

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        nested = {key: d.pop(name) for name, key in MAP_KEYS.items()}
        return {"map": nested, **d}

    def meta(self, command: str) -> dict:
        semantic = self.to_dict()
        semantic.pop("output_dir")  # where results land is not part of the run
        return {
            "command": command,
            "config_hash": reports.config_hash(semantic),
            "seed": self.seed,
        }


def _typed(name: str, tp: type, v):
    """v as a value of field type tp; a JSON value of another kind (a string
    for a number, a bool for a number, 12.7 for an int) is a config error.
    An int is accepted for a float field.  json.load reads NaN and Infinity,
    and a float must be finite, except r_smoothness, whose +inf (the default)
    declares an analytic map."""
    if tp is float:
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
    else:
        ok = isinstance(v, tp) and not (tp is int and isinstance(v, bool))
    if not ok:
        raise ValueError(f"{name} must be {tp.__name__}, got {v!r}")
    if tp is float and not (math.isfinite(v) or (name == "r_smoothness" and v == math.inf)):
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return tp(v)


# each basis element of the expression weight as its callable and its
# Fourier coefficients {j: c}, the weight being sum_j c e_j
WEIGHT_BASIS = {
    "one": (lambda x: np.ones(x.shape[0]), {(0, 0): 1.0}),
    "cos1": (lambda x: np.cos(2 * np.pi * x[:, 0]), {(1, 0): 0.5, (-1, 0): 0.5}),
    "cos2": (lambda x: np.cos(2 * np.pi * x[:, 1]), {(0, 1): 0.5, (0, -1): 0.5}),
    "sin1": (lambda x: np.sin(2 * np.pi * x[:, 0]), {(1, 0): -0.5j, (-1, 0): 0.5j}),
    "sin2": (lambda x: np.sin(2 * np.pi * x[:, 1]), {(0, 1): -0.5j, (0, -1): 0.5j}),
}


def build_weight(spec: dict):
    """Torus-map weight from its config spec (the schema is in README.md,
    "Configuration schema"): None for "one", which keeps the map's builtin
    weight, else the pair (callable, weight_hat) of maps.MapSystem:
    weight_hat is (j, c) with the frequencies j sorted, or None for the bump,
    which is no trigonometric polynomial."""
    wid = spec.get("id", "one")
    if wid == "one":
        return None  # builtin default weight
    if wid == "constant":
        c = _typed("weight.value", float, spec.get("value", 1.0))
        return (lambda x, c=c: np.full(x.shape[0], c)), (((0, 0),), (c,))
    if wid == "bump":
        center = spec.get("center", [0.5, 0.5])
        if not (isinstance(center, list) and len(center) == 2):
            raise ValueError(f"weight.center must be a list of two numbers, got {center!r}")
        center = np.array([_typed("weight.center", float, c) for c in center])
        width = _typed("weight.width", float, spec.get("width", 0.25))
        if width <= 0:
            raise ValueError(f"weight.width must be positive, got {width!r}")

        def w(x):
            d = x - center
            d = d - np.round(d)
            return maps.smooth_bump(np.linalg.norm(d, axis=1) / width)

        return w, None
    if wid == "expression":
        terms = spec.get("terms", {"one": 1.0})
        if not isinstance(terms, dict) or not terms:
            raise ValueError(f"weight.terms must be an object with at least one term, "
                             f"got {terms!r}")
        unknown = set(terms) - set(WEIGHT_BASIS)
        if unknown:
            raise ValueError(f"unknown weight basis elements: {sorted(unknown)}")
        terms = {k: _typed(f"weight.terms.{k}", float, c) for k, c in terms.items()}

        def w(x):
            return sum(c * WEIGHT_BASIS[k][0](x) for k, c in terms.items())

        hat = {}
        for k, c in terms.items():
            for j, v in WEIGHT_BASIS[k][1].items():
                hat[j] = hat.get(j, 0.0) + c * v
        return w, (tuple(sorted(hat)), tuple(hat[j] for j in sorted(hat)))
    raise ValueError(f"unknown weight id {wid!r}")


def aniso_weight(spec: dict):
    """Chart-model weight: None for the builtin bump ("one"), or the pair
    (callable, weight_hat) of the zero weight, with no coefficients."""
    wid = spec.get("id", "one")
    if wid == "one":
        return None  # builtin chart_weight
    if wid == "zero":
        return (lambda x: np.zeros(x.shape[0])), None
    raise ValueError(f"aniso runs the weight ids 'one' and 'zero', not {wid!r}")


def orbit_periods(cfg: RunConfig, command: str) -> range:
    """m = 1.. the largest period resonances (traces, validity radius) or
    bounds sums over."""
    top = max(cfg.N_det, det.VALIDITY_M_RANGE[-1]) if command == "resonances" else cfg.m_max
    return range(1, top + 1)


def build_system(cfg: RunConfig, command: str):
    """The map with its weight that `command` runs, built once from cfg.

    resonances and bounds get a torus MapSystem; aniso gets the chart model
    as (MapSystem, theta, theta_prime).  A map id, seed, eps or weight spec
    the command does not run raises ValueError (resonances runs only weights
    with declared Fourier coefficients), and so does a largest period whose
    |det(A^m - I)| points exceed orbits.ORBIT_SIZE_MAX.
    """
    allowed = COMMAND_MAPS[command]
    map_id = cfg.map_id or allowed[0]
    if map_id not in allowed:
        raise ValueError(f"{command} runs the map ids {list(allowed)}, not {map_id!r}")
    # a too large eps raises PerturbationTooLarge, a ValueError
    if command == "aniso":
        if cfg.map_seed != 0:
            raise ValueError(f"the chart model has no seed, got map.seed {cfg.map_seed}")
        sys_, theta, theta_prime = maps.builtin_chart_model(cfg.eps)
        w = aniso_weight(cfg.weight)
    else:
        sys_ = maps.make_map(map_id, cfg.eps, cfg.map_seed)
        m = orbit_periods(cfg, command)[-1]
        if orbits.fixed_point_count(sys_.linear_part, m) > orbits.ORBIT_SIZE_MAX:
            raise ValueError(f"period {m} has more than orbits.ORBIT_SIZE_MAX = "
                             f"{orbits.ORBIT_SIZE_MAX} points (|det(A^m - I)|)")
        w = build_weight(cfg.weight)
    if w is not None:
        sys_ = sys_.with_weight(*w, tag=json.dumps(cfg.weight, sort_keys=True))
    # the closed form of the collocation matrix reads the coefficients, and a
    # Fourier truncation cannot certify a weight that is not analytic
    if command == "resonances" and sys_.weight_hat is None:
        raise ValueError(f"resonances needs a weight with declared Fourier coefficients; "
                         f"{cfg.weight.get('id')!r} is not a trigonometric polynomial "
                         "(bounds runs it)")
    return (sys_, theta, theta_prime) if command == "aniso" else sys_


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cpu_count() -> int:
    """CPUs this process may run on; cmd_aniso runs one pool worker on each."""
    return len(os.sched_getaffinity(0))


def cmd_resonances(cfg: RunConfig, sys_: maps.MapSystem, quiet: bool = False) -> int:
    """Orbits -> traces -> determinant, and collocation at n_freq and 2 n_freq,
    then the stability filter and the zero/eigen match.

    The two truncations share nothing until the filter, so the determinant
    route with the n_freq eigenvalues runs on a one-worker pool while this
    thread computes the 2 n_freq eigenvalues: their FFT, BLAS, LAPACK and
    sparse kernels release the GIL.
    """
    out = reports.ensure_dir(cfg.output_dir)
    meta = cfg.meta("resonances")

    def determinant_and_lo():
        pts = {m: orbits.periodic_points(sys_, m) for m in orbit_periods(cfg, "resonances")}
        ts = det.trace_series(sys_, pts, cfg.N_det)
        dp = det.det_coeffs_from_traces(ts, det.validity_radius(sys_, pts, cfg.p, cfg.q))
        zeros = det.det_zeros(dp, cfg.det_radius)
        report = det.determinant_report(ts, dp, zeros, cfg.det_radius, pts)
        del pts
        tm1 = coll.build_transfer_matrix(sys_, cfg.n_freq)
        return ts, zeros, report, coll.eigen_resonances(tm1, top=cfg.top_k, seed=cfg.seed)

    # The 2 n_freq matrix is built first, alone.  Since the orbits are
    # solved one cycle at a time the order barely matters: starting the
    # determinant route first gave the same wall time, within the spread,
    # and about 1.5 MB more peak RSS on the benchmark resonances config
    # (six alternating runs each, one BLAS thread, 2-core x86-64 box).
    with ThreadPoolExecutor(max_workers=1) as pool:
        tm2 = coll.build_transfer_matrix(sys_, 2 * cfg.n_freq)
        lo = pool.submit(determinant_and_lo)
        # the same seeded solver at both truncations, so both sides of the
        # stability filter keep the same top_k eigenvalues
        try:
            w2, r2 = coll.eigen_resonances(tm2, top=cfg.top_k, seed=cfg.seed)
        except Exception:
            # a serial run meets an error of the other route first
            lo.result()
            raise
        # freed before the dense matrices of the other route, if it is still running
        del tm2
        ts, zeros, det_report, (w1, r1) = lo.result()
    i1, i2 = coll.stability_filter(w1, w2).T
    stable, res1, res2 = w1[i1], r1[i1], r2[i2]
    coll.check_residuals(stable, res1)
    coll.check_residuals(w2[i2], res2)
    match = coll.match_resonances_to_zeros(stable, zeros, cfg.det_radius, cfg.match_tol)

    reports.write_csv(
        os.path.join(out, "traces.csv"), ["m", "trace"],
        [(m + 1, float(t)) for m, t in enumerate(ts.traces)], meta,
    )
    reports.write_json(os.path.join(out, "determinant.json"), det_report, meta)
    reports.write_json(
        os.path.join(out, "match.json"),
        {
            "n_freq": [cfg.n_freq, 2 * cfg.n_freq],
            "stable_eigenvalues": [complex(z) for z in stable],
            "residuals": [res1, res2],
            "match": match,
        },
        meta,
    )
    if not quiet:
        print(f"resonances: {len(match['pairs'])} matched, "
              f"{len(match['unmatched_zeros'])} unmatched zeros, "
              f"{len(match['unmatched_eigenvalues'])} unmatched eigenvalues")
    return EXIT_OK if match["pass"] else EXIT_CHECK_FAILED


def cmd_bounds(cfg: RunConfig, sys_: maps.MapSystem, quiet: bool = False) -> int:
    """Per-m bound table, Kitaev equality and the Appendix-B inequality."""
    out = reports.ensure_dir(cfg.output_dir)
    meta = cfg.meta("bounds")
    periods = orbit_periods(cfg, "bounds")
    pts = {m: orbits.periodic_points(sys_, m) for m in periods}
    rows, cover = bd.bound_table(sys_, pts, cfg.p, cfg.q, periods,
                                 n_samples=cfg.mc_samples, seed=cfg.seed)

    # both routes fit the largest EXTRAPOLATION_POINTS m values; validate
    # keeps them above the m = 1 transient
    m_fit = list(range(cfg.m_max - bd.EXTRAPOLATION_POINTS + 1, cfg.m_max + 1))
    if cfg.negative_control:
        # deliberately mismatched exponents: the integral route at q = 0
        fit_rows = [{"m": m, **bd.sample_period(sys_, cfg.p, 0.0, m, cfg.mc_samples,
                                                cfg.seed + m)}
                    for m in m_fit]
    else:
        fit_rows = [r for r in rows if r["m"] in m_fit]
    failures = []
    try:
        cross = bd.kitaev_crosscheck(sys_, pts, cfg.p, cfg.q, fit_rows)
    except CrossCheckFailed as exc:
        cross = exc.data
        failures.append("kitaev")
    try:
        appB = bd.appendixB_check(rows, cfg.p, cfg.q)
    except InequalityViolated as exc:
        appB = exc.data
        failures.append("appendixB")

    header = sorted({k for r in rows for k in r})
    reports.write_csv(os.path.join(out, "bounds.csv"), header,
                      [[r.get(k, "") for k in header] for r in rows], meta)
    reports.write_json(
        os.path.join(out, "bounds.json"),
        {
            "parameters": {"p": cfg.p, "q": cfg.q, "t_grid": list(bd.T_GRID),
                           "mc_samples": cfg.mc_samples,
                           "split_ref_iterations": maps.SPLIT_REF_ITERATIONS},
            "per_m": rows,
            "kitaev": cross,
            "appendixB": appB,
            "failures": failures,
            # itinerary counts and the thin ones that fire EmptyWitness
            "diagnostics": {"cover": cover},
        },
        meta,
    )
    if not quiet:
        kitaev = (cross["reason"] if cross["log_gap"] is None else
                  f"gap {cross['log_gap']:.4f} (rho {cross['rho_estimate']:.6f}, "
                  f"Q {cross['q_estimate']:.6f})")
        print(f"bounds: kitaev {kitaev}; failures: {failures or 'none'}")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_aniso(cfg: RunConfig, chart: tuple, quiet: bool = False) -> int:
    """Partition, Young, triangularity, flat-trace and kneading checks on
    chart = (MapSystem, theta, theta_prime) from build_system.

    After the h exponents the checks share nothing, so they run at the same
    time on a thread pool: their FFT, BLAS, LAPACK, spline and ufunc kernels
    release the GIL.  One task computes the flat trace and then the
    compressed matrices with the kneading identity, so the two largest
    working sets never overlap.  Meanwhile this thread computes the
    partition error and then hands the Young trials to the pool one by one.
    The outputs do not depend on the number of workers.
    """
    out = reports.ensure_dir(cfg.output_dir)
    meta = cfg.meta("aniso")
    sys_, theta, theta_prime = chart
    weight = sys_.weight
    zero_weight = weight is not maps.chart_weight
    # h exponents always use the support of the builtin bump; the zero
    # weight makes the operator vanish but leaves the cone geometry intact
    h_weight = maps.chart_weight
    n_max = cfg.n_max_aniso

    # strict triangularity of linked masks for large iterates; the kneading
    # blocks use the h exponents of T^10 too
    it10 = maps.iterate_map(sys_, 10)
    it12 = maps.iterate_map(sys_, 12)
    hp10, hm10 = ablocks.h_exponents(it10, h_weight, theta, theta_prime)
    hp12, hm12 = ablocks.h_exponents(it12, h_weight, theta, theta_prime)
    masks = [ablocks.hook_mask(6, hp10, hm10), ablocks.hook_mask(6, hp12, hm12),
             ablocks.hook_mask(6, hp10, hm10)]
    tri = (hp10 < 0 < hm10 and hp12 < 0 < hm12
           and ablocks.triangularity_product_check(masks))

    def flat_trace():
        # flat-trace convergence to the fixed-point value; the 1e-3 gap
        # criterion is pinned at n0 = 8 independently of the band cap
        n0 = 8
        if zero_weight:
            return ({"partial_sum": 0.0, "telescoping_err": 0.0,
                     "fixed_point_value": 0.0, "gap": 0.0, "pass": True},
                    {"lattice_side": 0, "x_points": 0})
        quad = ablocks.FlatTraceQuadrature(sys_, weight, theta_prime, n0_max=n0)
        partial = quad.partial_sum(n0)
        tele = abs(partial - quad.chi_trace(n0))
        oracle = quad.fixed_point_value()
        return ({
            "partial_sum": partial,
            "telescoping_err": tele,
            "fixed_point_value": oracle,
            "gap": abs(partial - oracle),
            "pass": bool(tele <= 1e-8 and abs(partial - oracle) <= 1e-3),
        }, {"lattice_side": quad.lattice_side, "x_points": quad.x_points})

    def kneading():
        # kneading identity on the compressed truncation
        n_mat = min(6, n_max)
        zs = 0.1 * np.exp(2j * np.pi * np.arange(8) / 8)
        if zero_weight:
            M = Mb = Mc = np.zeros((4, 4))
            quad_points = 0
        else:
            block10 = ablocks.BlockOperator(
                sys=it10, weight=weight, theta=theta, theta_prime=theta_prime,
                n_max=n_mat, h_plus=hp10, h_minus=hm10,
            )
            M, Mb, Mc, _ = block10.compressed_matrices()
            quad_points = block10.quad_points
        knead = ablocks.kneading_check(M, Mb, Mc, zs)
        return ({"max_rel_err": knead["max_rel_err"], "pass": knead["pass"]},
                {"dim": M.shape[0], "quadrature_points": quad_points})

    def flat_trace_then_kneading():
        # The flat trace and the compressed build each evaluate in blocks of
        # points, so their working sets are bounded (about 34 and 26 MB
        # traced by tracemalloc) and the order barely moves the peak: 137 MB
        # for the benchmark aniso command in this order, 138 MB the other
        # way round (2-core x86-64, one BLAS thread).
        return flat_trace(), kneading()

    # Only this thread waits on futures, so no task waits on another and a
    # one-worker pool cannot deadlock.
    with ThreadPoolExecutor(max_workers=cpu_count()) as pool:
        blocks = pool.submit(flat_trace_then_kneading)
        part_err = apart.partition_sum_error(theta, n_max)
        young = apart.young_trials(theta, cfg.young_trials, cfg.seed, pool)
        # read after the Young trials, so the error raised is the one a
        # serial run would raise first
        (flat, flat_sizes), (knead, knead_sizes) = blocks.result()
    passed = sum(ok for _, _, ok in young)
    checks = {
        "partition": {"max_err": part_err, "pass": part_err <= 1e-12},
        "young": {"passed": passed, "trials": cfg.young_trials,
                  "pass": passed == cfg.young_trials},
        "triangularity": {"h10": [hp10, hm10], "h12": [hp12, hm12], "pass": bool(tri)},
        "flat_trace": flat,
        "kneading": knead,
    }
    # sizes and the least Young margin: deterministic, so the report stays
    # byte-identical between reruns, worker counts and BLAS thread counts
    diagnostics = {
        "young": {"grid_side": apart.YOUNG_SIDE, "directions": apart.YOUNG_DIRS,
                  "offsets": apart.YOUNG_OFFSETS, "line_samples": apart.YOUNG_LINE_SAMPLES,
                  "least_margin": min(((apart.young_allowance(rhs) - lhs) / rhs
                                       for lhs, rhs, _ in young), default=None)},
        "compressed": knead_sizes,
        "flat_trace": flat_sizes,
    }

    all_pass = all(c["pass"] for c in checks.values())
    reports.write_json(os.path.join(out, "aniso.json"),
                       {"eps": cfg.eps, "n_max": n_max, "checks": checks,
                        "diagnostics": diagnostics}, meta)
    if not quiet:
        for name, c in checks.items():
            print(f"aniso {name}: {'pass' if c['pass'] else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_report(output_dir: str, quiet: bool = False) -> int:
    """Merge prior run reports and emit plot data files."""
    names = ["determinant.json", "match.json", "bounds.json", "aniso.json"]
    found = {}
    for name in names:
        path = os.path.join(output_dir, name)
        if os.path.exists(path):
            try:
                rep = reports.read_json(path)
            except ValueError as exc:  # truncated or not JSON
                raise MissingArtifacts(f"{path} is not a readable report: {exc}") from exc
            head = rep.get("meta") if isinstance(rep, dict) else None
            if not (isinstance(head, dict) and {"config_hash", "seed"} <= head.keys()):
                raise MissingArtifacts(f"{path} is not a report: no meta.config_hash and "
                                       "meta.seed")
            found[name] = rep
    if not found:
        raise MissingArtifacts(f"no report files in {output_dir!r}")
    gaps = [n for n in names if n not in found]
    hashes = {name: rep["meta"]["config_hash"] for name, rep in found.items()}
    mixed = len(set(hashes.values())) > 1
    if mixed:
        print(f"warning: reports in {output_dir!r} come from different configs: {hashes}",
              file=sys.stderr)
    first = found[next(iter(found))]["meta"]
    meta = {"command": "report", "config_hash": first["config_hash"], "seed": first["seed"]}
    summary = {"sources": sorted(found), "gaps": gaps, "config_hashes": hashes,
               "mixed_config": mixed,
               "reports": {k.replace(".json", ""): v for k, v in found.items()}}
    reports.write_json(os.path.join(output_dir, "summary.json"), summary, meta)

    plots = []
    if "determinant.json" in found:
        d = found["determinant.json"]
        ms = list(range(1, len(d["traces"]) + 1))
        reports.write_columns(os.path.join(output_dir, "traces.dat"),
                              "trace series", ["m", "trace"],
                              [ms, d["traces"]], meta)
        zs = d["zeros"]
        reports.write_columns(os.path.join(output_dir, "zeros_scatter.dat"),
                              "determinant zeros", ["re", "im", "backward_error"],
                              [[z["re"] for z in zs], [z["im"] for z in zs],
                               [z["backward_error"] for z in zs]] if zs else [[], [], []],
                              meta)
        plots += ["traces.dat", "zeros_scatter.dat"]
    if "match.json" in found:
        eigs = found["match.json"]["stable_eigenvalues"]
        reports.write_columns(os.path.join(output_dir, "eigs_scatter.dat"),
                              "stable collocation eigenvalues", ["re", "im"],
                              [[e["re"] for e in eigs], [e["im"] for e in eigs]]
                              if eigs else [[], []], meta)
        plots.append("eigs_scatter.dat")
    if "bounds.json" in found:
        rows = found["bounds.json"]["per_m"]
        ms = [r["m"] for r in rows]
        reports.write_columns(
            os.path.join(output_dir, "bounds_curves.dat"),
            "log of per-m bound values (-inf for 0)",
            ["m", "log_rho", "log_R_min", "pressure"],
            [ms,
             [_log(r["rho"]) for r in rows],
             [_log(min(v for k, v in r.items() if k.startswith("R_t"))) for r in rows],
             [r["pressure"] for r in rows]],
            meta,
        )
        plots.append("bounds_curves.dat")
    if not quiet:
        print(f"report: merged {len(found)} reports, wrote summary.json + {len(plots)} plot files"
              + (f", gaps: {gaps}" if gaps else ""))
    return EXIT_OK


def _log(v: float) -> float:
    """log v, with the -inf marker for v = 0 (a vanishing weight)."""
    return math.log(v) if v > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_config(path, overrides) -> RunConfig:
    d = {}
    if path:
        with open(path) as fh:
            d = json.load(fh)
    # the overrides are validated with the file's keys; a top level that is
    # no object is refused by from_dict
    if isinstance(d, dict):
        d = {**d, **{k: v for k, v in overrides.items() if v is not None}}
    return RunConfig.from_dict(d)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hypdet",
                                 description="dynamical determinants and "
                                             "resonances for hyperbolic maps")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMAND_MAPS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("report")
    p.add_argument("--out", default="out")
    p.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.command == "report":
        try:
            return cmd_report(args.out, quiet=args.quiet)
        except MissingArtifacts as exc:
            print(f"bad artifacts: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL

    try:
        cfg = _load_config(args.config, {"seed": args.seed, "output_dir": args.out})
        # a map or weight the command does not run is refused before any work
        system = build_system(cfg, args.command)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "resonances":
            return cmd_resonances(cfg, system, quiet=args.quiet)
        if args.command == "bounds":
            return cmd_bounds(cfg, system, quiet=args.quiet)
        if args.command == "aniso":
            return cmd_aniso(cfg, system, quiet=args.quiet)
    except HypdetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
