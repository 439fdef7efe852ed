"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s); timing
budgets are asserted with a monotonic clock, and each test computes the
periodic points it sums over inside the timed region, as a command run does.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from hypdet import bounds as bd
from hypdet import cli, collocation as coll
from hypdet import determinant as det
from hypdet import maps, orbits, reports

LAM = maps.CAT_LAMBDA
MU = maps.CAT_MU
GOLD_RATE = 0.3819660112501051
GOLD_ENTROPY = 0.9624236501192069


def _line(num, desc, ok):
    print(f"ACCEPTANCE {num} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def points(sys_, periods):
    return {m: orbits.periodic_points(sys_, m) for m in periods}


def test_criterion_1_cat_determinant_exactness():
    t0 = time.monotonic()
    cat = maps.builtin_cat_map()
    ts = det.trace_series(cat, points(cat, range(1, 13)), 12)
    dp = det.det_coeffs_from_traces(ts, (LAM, 1.0))
    zeros = det.det_zeros(dp, 2.0)
    elapsed = time.monotonic() - t0
    ok = (
        np.max(np.abs(ts.traces - 1.0)) <= 1e-10
        and abs(dp.coeffs[0] - 1.0) <= 1e-10
        and abs(dp.coeffs[1] + 1.0) <= 1e-10
        and np.max(np.abs(dp.coeffs[2:])) <= 1e-10
        and len(zeros) == 1
        and abs(zeros[0]["zero"] - 1.0) <= 1e-10
        and zeros[0]["multiplicity"] == 1
        and elapsed < 5.0
    )
    _line(1, f"cat determinant exactness, {elapsed:.1f}s", ok)


def test_criterion_2_kitaev_equality():
    t0 = time.monotonic()
    cat = maps.builtin_cat_map()
    pts = points(cat, range(4, 11))
    rows = bd.bound_table(cat, pts, 1.0, -1.0, range(4, 11), n_samples=4096, seed=1)
    rep = bd.kitaev_crosscheck(cat, pts, 1.0, -1.0, rows)
    elapsed = time.monotonic() - t0
    ok = (
        abs(rep["rho_estimate"] - GOLD_RATE) <= 0.02 * GOLD_RATE
        and abs(rep["q_estimate"] - GOLD_RATE) <= 0.02 * GOLD_RATE
        and rep["log_gap"] <= 0.05
        and elapsed < 30.0
    )
    _line(2, f"Kitaev equality p=1 q=-1, gap {rep['log_gap']:.4f}, {elapsed:.1f}s", ok)


def test_criterion_3_pressure_route():
    t0 = time.monotonic()
    cat = maps.builtin_cat_map()
    pts = points(cat, range(4, 11))
    q00 = bd.q_variational(cat, pts, range(4, 11), 0.0, 0.0)["estimate"]
    p10 = bd.pressure_periodic({10: pts[10]})[10]
    elapsed = time.monotonic() - t0
    ok = (
        abs(q00 - 1.0) <= 0.02
        and abs(p10 - GOLD_ENTROPY) <= 0.02 * GOLD_ENTROPY
        and elapsed < 20.0
    )
    _line(3, f"pressure route Q00={q00:.4f} P10={p10:.4f}, {elapsed:.1f}s", ok)


def test_criterion_4_cross_method_match():
    t0 = time.monotonic()
    pc = maps.builtin_perturbed_cat(0.01)
    pts = points(pc, range(1, 13))
    ts = det.trace_series(pc, pts, 12)
    dp = det.det_coeffs_from_traces(ts, det.validity_radius(pc, pts, 1.0, -1.0))
    zeros = det.det_zeros(dp, 1.5)

    tm32 = coll.build_transfer_matrix(pc, 32)
    tm64 = coll.build_transfer_matrix(pc, 64)
    w32, _ = coll.eigen_resonances(tm32, top=48, seed=0)
    w64, _ = coll.eigen_resonances(tm64, top=48, seed=0)
    stable = w32[coll.stability_filter(w32, w64)[:, 0]]
    match = coll.match_resonances_to_zeros(stable, zeros, radius=1.5, tol=1e-4)
    elapsed = time.monotonic() - t0

    unit = [p for p in match["pairs"]
            if abs(p["zero"] - 1.0) <= 1e-8 and abs(p["eigenvalue"] - 1.0) <= 1e-8]
    ok = match["pass"] and len(unit) == 1 and elapsed < 60.0
    _line(4, f"zero/eigenvalue bijection at N=32/64, "
             f"{len(match['pairs'])} pair(s), {elapsed:.1f}s", ok)


def test_criterion_5_zeta_product_identity():
    t0 = time.monotonic()
    ok = True
    for eps in (0.0, 0.01):
        sys_ = maps.make_map("cat" if eps == 0.0 else "perturbed_cat", eps)
        pts = points(sys_, range(1, 9))
        zd = det.zeta_direct(pts, 8)
        zp = det.zeta_product(pts, 8)
        ok = ok and np.max(np.abs(zd[:8] - zp[:8])) <= 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 20.0
    _line(5, f"zeta product identity (cat, eps=0.01), {elapsed:.1f}s", ok)


def test_criterion_6_appendix_b_inequality():
    t0 = time.monotonic()
    ok = True
    for eps in (0.0, 0.01):
        sys_ = maps.make_map("cat" if eps == 0.0 else "perturbed_cat", eps)
        rows = bd.bound_table(sys_, points(sys_, range(1, 7)), 1.0, -1.0, range(1, 7),
                              n_samples=2048, seed=4)
        rep = bd.appendixB_check(rows, 1.0, -1.0)
        ok = ok and rep["pass"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 20.0
    _line(6, f"Appendix-B inequality m=1..6 on both torus maps, {elapsed:.1f}s", ok)


def test_criterion_7_aniso_suite(tmp_path):
    t0 = time.monotonic()
    out = str(tmp_path / "aniso")
    rc = cli.main(["aniso", "--out", out, "--quiet"])
    elapsed = time.monotonic() - t0
    rep = reports.read_json(out + "/aniso.json")
    checks = rep["checks"]
    ok = (
        rc == 0
        and checks["partition"]["max_err"] <= 1e-12
        and checks["young"]["passed"] == checks["young"]["trials"] == 100
        and checks["triangularity"]["pass"]
        and checks["flat_trace"]["gap"] <= 1e-3
        and checks["flat_trace"]["telescoping_err"] <= 1e-8
        and checks["kneading"]["max_rel_err"] <= 1e-8
        and elapsed < 90.0
    )
    _line(7, f"aniso suite at n_max=8 (matrices at 6), {elapsed:.1f}s", ok)


def test_criterion_8_determinism(tmp_path):
    cfg_bounds = tmp_path / "b.json"
    cfg_bounds.write_text(json.dumps({
        "map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
        "m_max": 6, "mc_samples": 512, "seed": 13,
    }))
    cfg_res = tmp_path / "r.json"
    cfg_res.write_text(json.dumps({
        "map": {"id": "cat"}, "N_det": 8, "n_freq": 8, "seed": 13,
    }))
    ok = True
    for cfg, cmd, files in (
        (cfg_bounds, "bounds", ("bounds.json", "bounds.csv")),
        (cfg_res, "resonances", ("traces.csv", "determinant.json", "match.json")),
    ):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{cmd}_{tag}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli.main([cmd, "--config", str(cfg), "--out", out, "--quiet"])
            ok = ok and rc == 0
            outs.append(out)
        for fname in files:
            a = open(outs[0] + "/" + fname, "rb").read()
            b = open(outs[1] + "/" + fname, "rb").read()
            ok = ok and a == b
    _line(8, "byte-identical report files on rerun", ok)
