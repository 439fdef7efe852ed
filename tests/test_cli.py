import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from hypdet import cli, maps, orbits, reports
from hypdet.errors import MissingArtifacts


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def quick_resonances_cfg(tmp_path):
    return write_config(tmp_path, "res.json", {
        "map": {"id": "cat", "eps": 0.0, "seed": 0},
        "N_det": 8, "n_freq": 8, "seed": 5,
    })


def test_resonances_cat(quick_resonances_cfg, tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["resonances", "--config", quick_resonances_cfg,
                   "--out", out, "--quiet"])
    assert rc == 0
    d = reports.read_json(out + "/determinant.json")
    coeffs = np.array(d["coeffs"])
    assert abs(coeffs[1] + 1.0) < 1e-10 and np.max(np.abs(coeffs[2:])) < 1e-10
    # periods 1..10 (the validity radius reads up to 10); the lattice seeds of
    # the cat map are its points, so no Newton step is taken
    orb = d["diagnostics"]["orbits"]
    assert [o["m"] for o in orb] == list(range(1, 11))
    assert [o["points"] for o in orb] == [orbits.fixed_point_count(maps.CAT_A_INT, m)
                                          for m in range(1, 11)]
    # Fix(A^10) holds 1, 2, 24 and 1500 cycles of exact period 1, 2, 5 and 10
    assert orb[9]["prime_cycles"] == 1527 and all(o["newton_steps"] == 0 for o in orb)
    m = reports.read_json(out + "/match.json")
    assert m["match"]["pass"]
    lines = open(out + "/traces.csv").read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "m,trace"


def test_resonances_perturbed_small(tmp_path):
    cfg = write_config(tmp_path, "res2.json", {
        "map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
        "N_det": 6, "n_freq": 8, "seed": 5,
    })
    out = str(tmp_path / "out2")
    rc = cli.main(["resonances", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 0
    m = reports.read_json(out + "/match.json")
    pairs = m["match"]["pairs"]
    assert len(pairs) == 1
    assert abs(pairs[0]["eigenvalue"]["re"] - 1.0) < 1e-6
    res_n, res_2n = m["residuals"]
    assert len(res_n) == len(res_2n) == len(m["stable_eigenvalues"])
    assert max(res_n + res_2n) < 1e-12


EXACT_CASE = {
    "map": {"id": "cat"},
    "weight": {"id": "expression", "terms": {"one": 1.0, "cos1": 0.6, "sin2": 0.4}},
    "p": 2.0, "q": -2.0, "det_radius": 6.0, "N_det": 12, "n_freq": 6,
}


def test_resonances_exact_cat_case(tmp_path):
    # on the cat map a trigonometric-polynomial weight gives a transfer
    # operator whose nonzero spectrum is finite: for this weight {1, 0.3,
    # 0.3, 0.2i, -0.2i}, so the zeros inside radius 6 are 1, 10/3 (double)
    # and +-5i
    cfg = write_config(tmp_path, "exact.json", EXACT_CASE)
    out = tmp_path / "exact"
    assert cli.main(["resonances", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    match = reports.read_json(str(out / "match.json"))["match"]
    assert match["pass"] and not match["unmatched_zeros"] and not match["unmatched_eigenvalues"]

    def by_value(t):
        return round(t[0].real, 6), round(t[0].imag, 6)

    got = sorted(((complex(p["eigenvalue"]["re"], p["eigenvalue"]["im"]),
                   complex(p["zero"]["re"], p["zero"]["im"]),
                   p["multiplicity_eig"], p["multiplicity_zero"]) for p in match["pairs"]),
                 key=by_value)
    want = sorted([(0.2j, -5j, 1), (-0.2j, 5j, 1), (0.3 + 0j, 10 / 3 + 0j, 2),
                   (1 + 0j, 1 + 0j, 1)], key=by_value)
    assert len(got) == len(want)
    for (mu, z, m_eig, m_zero), (mu0, z0, mult) in zip(got, want):
        assert abs(mu - mu0) <= 1e-12 and abs(z - z0) <= 1e-12
        assert m_eig == m_zero == mult


def test_resonances_exact_cat_case_fails_with_one_route_scaled(monkeypatch, tmp_path):
    # the weight x 1.01 on the collocation route alone scales every
    # eigenvalue by 1.01, and the determinant zeros stay where they are
    from hypdet import collocation as coll

    build = coll.build_transfer_matrix

    def scaled(sys_, n_freq):
        tm = build(sys_, n_freq)
        return dataclasses.replace(tm, matrix=1.01 * tm.matrix)

    monkeypatch.setattr(coll, "build_transfer_matrix", scaled)
    cfg = write_config(tmp_path, "exact.json", EXACT_CASE)
    assert cli.main(["resonances", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_resonances_rejects_large_ritz_residual(monkeypatch, tmp_path):
    from hypdet import collocation as coll

    solve = coll.eigen_resonances

    def uncertified(tm, top=None, seed=0):
        w, res = solve(tm, top=top, seed=seed)
        return w, res + 1e-3

    monkeypatch.setattr(coll, "eigen_resonances", uncertified)
    cfg = write_config(tmp_path, "res3.json", {
        "map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
        "N_det": 6, "n_freq": 8, "seed": 5,
    })
    rc = cli.main(["resonances", "--config", cfg, "--out", str(tmp_path / "o3"),
                   "--quiet"])
    assert rc == 4


def patch_periodic_points(monkeypatch, make):
    """Replace every module binding of orbits.periodic_points by
    make(orbits.periodic_points)."""
    from hypdet import orbits

    points = orbits.periodic_points
    new = make(points)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hypdet" and getattr(mod, "periodic_points", None) is points:
            monkeypatch.setattr(mod, "periodic_points", new)


def count_periodic_points(monkeypatch):
    """{m: number of periodic_points calls for period m} over the test."""
    counts = {}

    def make(points):
        def counted(sys_, m):
            counts[m] = counts.get(m, 0) + 1
            return points(sys_, m)
        return counted

    patch_periodic_points(monkeypatch, make)
    return counts


def test_resonances_computes_each_quantity_once(monkeypatch, tmp_path):
    from hypdet import bounds, determinant, maps

    calls = {"validity_radius": 0, "exponents": []}
    points = count_periodic_points(monkeypatch)
    radius, exponents = determinant.validity_radius, maps.hyperbolicity_exponents

    def counted_radius(*a, **k):
        calls["validity_radius"] += 1
        return radius(*a, **k)

    def counted_exponents(sys, x, m):
        calls["exponents"].append(m)
        return exponents(sys, x, m)

    monkeypatch.setattr(determinant, "validity_radius", counted_radius)
    # bounds imports the function by name, so patch both bindings
    monkeypatch.setattr(maps, "hyperbolicity_exponents", counted_exponents)
    monkeypatch.setattr(bounds, "hyperbolicity_exponents", counted_exponents)
    cfg = write_config(tmp_path, "res4.json", {
        "map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
        "N_det": 6, "n_freq": 8, "seed": 5,
    })
    rc = cli.main(["resonances", "--config", cfg, "--out", str(tmp_path / "o4"),
                   "--quiet"])
    assert rc == 0
    assert calls["validity_radius"] == 1
    # the validity radius reads the exponents from the stored DT^m
    assert calls["exponents"] == []
    # the traces to N_det 6 and the validity radius's m = 4..10 share one set each
    assert points == {m: 1 for m in range(1, 11)}


def test_resonances_failure_on_the_pool_exits_4(monkeypatch, tmp_path):
    from hypdet import collocation as coll
    from hypdet.errors import EigenSolverFailure

    solve = coll.eigen_resonances

    def failing_at_2n(tm, top=None, seed=0):
        if tm.n_freq == 16:
            raise EigenSolverFailure("injected at 2 n_freq")
        return solve(tm, top=top, seed=seed)

    monkeypatch.setattr(coll, "eigen_resonances", failing_at_2n)
    cfg = write_config(tmp_path, "res6.json", {
        "map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
        "N_det": 6, "n_freq": 8, "seed": 5,
    })
    out = tmp_path / "o6"
    assert cli.main(["resonances", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    assert list(out.iterdir()) == []


def test_resonances_raises_the_error_a_serial_run_raises_first(monkeypatch, tmp_path, capsys):
    from hypdet import collocation as coll
    from hypdet import orbits
    from hypdet.errors import EigenSolverFailure, NewtonDiverged

    def failing_at_2n(tm, top=None, seed=0):
        if tm.n_freq == 16:
            raise EigenSolverFailure("injected at 2 n_freq")
        raise AssertionError("a serial run stops before the n_freq eigensolve")

    def late_orbit_failure(*args, **kwargs):
        # fails after the 2 n_freq route has failed on the calling thread
        time.sleep(0.5)
        raise NewtonDiverged("injected in the orbits")

    # a serial run computes the determinant before the 2 n_freq eigenvalues
    monkeypatch.setattr(coll, "eigen_resonances", failing_at_2n)
    monkeypatch.setattr(orbits, "periodic_points", late_orbit_failure)
    cfg = write_config(tmp_path, "res7.json", {
        "map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
        "N_det": 6, "n_freq": 8, "seed": 5,
    })
    out = tmp_path / "o7"
    assert cli.main(["resonances", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "injected in the orbits" in err and "2 n_freq" not in err


@pytest.fixture()
def quick_bounds_cfg(tmp_path):
    return write_config(tmp_path, "bounds.json", {
        "map": {"id": "cat"}, "m_max": 6, "mc_samples": 512, "seed": 3,
    })


def test_bounds_cat(quick_bounds_cfg, tmp_path):
    out = str(tmp_path / "outb")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["bounds", "--config", quick_bounds_cfg, "--out", out,
                       "--quiet"])
    assert rc == 0
    b = reports.read_json(out + "/bounds.json")
    assert b["kitaev"]["pass"] and b["appendixB"]["pass"]
    assert abs(b["kitaev"]["rho_estimate"] - 0.381966) < 0.01
    # the report format: one column and one key per quantity, every row alike
    assert set(b) == {"meta", "parameters", "per_m", "kitaev", "appendixB", "failures"}
    with open(out + "/bounds.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "R_t1,R_t2,R_tinf,m,pressure,rho,rho_stderr"
    assert len(lines) == 2 + 6 and all(set(r) == set(lines[1].split(",")) for r in b["per_m"])


def test_bounds_computes_each_quantity_once(monkeypatch, quick_bounds_cfg, tmp_path):
    from hypdet import bounds, maps

    calls = {"sample": 0, "exponents": 0}
    sample, exponents = bounds.sample_period, maps.hyperbolicity_exponents
    points = count_periodic_points(monkeypatch)

    def counted(key, fn):
        def wrapper(*a, **k):
            calls[key] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(bounds, "sample_period", counted("sample", sample))
    # bounds imports the function by name, so patch both bindings
    monkeypatch.setattr(maps, "hyperbolicity_exponents", counted("exponents", exponents))
    monkeypatch.setattr(bounds, "hyperbolicity_exponents", counted("exponents", exponents))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["bounds", "--config", quick_bounds_cfg, "--out",
                       str(tmp_path / "oc"), "--quiet"])
    assert rc == 0
    # m = 1..6: one draw and walk per m gives rho and R; the variational
    # route reads the stored DT^m
    assert calls == {"sample": 6, "exponents": 6}
    # the table's pressure and the Kitaev fit over m = 3..6 share one set each
    assert points == {m: 1 for m in range(1, 7)}


@pytest.mark.parametrize("command,payload", [
    ("resonances", {"N_det": 17}),
    ("resonances", {"map": {"id": "perturbed_cat", "eps": 0.05}, "N_det": 17}),
    ("bounds", {"m_max": 17}),
    ("bounds", {"map": {"id": "perturbed_cat", "eps": 0.01}, "m_max": 17}),
])
def test_orbits_too_large_to_fit_are_a_config_error(command, payload, monkeypatch, tmp_path,
                                                      capsys):
    # period 17: |det(A^17 - I)| = 1.3e7 points, about 1.5 GB; refused
    # before any orbit work, which would fail this test at once instead of
    # running
    def refused(points):
        def no_orbits(sys_, m):
            raise AssertionError(f"the period-{m} points were computed")
        return no_orbits

    patch_periodic_points(monkeypatch, refused)
    bad = write_config(tmp_path, "big.json", payload)
    t0 = time.monotonic()
    assert cli.main([command, "--config", bad, "--out", str(tmp_path / "o")]) == 3
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "ORBIT_SIZE_MAX" in err
    assert not (tmp_path / "o").exists()


def test_mc_samples_too_large_to_fit_are_a_config_error(monkeypatch, tmp_path, capsys):
    # 10^12 points at about 0.9 KB each; refused before any point is drawn
    from hypdet import bounds

    def no_draw(*a, **k):
        raise AssertionError("points were drawn")

    monkeypatch.setattr(bounds, "sample_period", no_draw)
    bad = write_config(tmp_path, "big.json", {"map": {"id": "cat"}, "mc_samples": 10**12})
    assert cli.main(["bounds", "--config", bad, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "MC_SAMPLES_MAX" in err
    assert not (tmp_path / "o").exists()
    cfg = cli.RunConfig.from_dict({"mc_samples": bounds.MC_SAMPLES_MAX})
    assert cfg.mc_samples == bounds.MC_SAMPLES_MAX


def test_orbit_size_limit_admits_period_16():
    cfg = cli.RunConfig.from_dict({"map": {"id": "perturbed_cat", "eps": 0.01}})
    assert cfg.N_det == 14
    for n in (14, 15, 16):
        cli.build_system(dataclasses.replace(cfg, N_det=n), "resonances")
    for n in (17, 18):
        with pytest.raises(ValueError, match="ORBIT_SIZE_MAX"):
            cli.build_system(dataclasses.replace(cfg, N_det=n), "resonances")


def test_bounds_zero_weight_fails_kitaev_and_reports(tmp_path):
    # rho vanishes at every m, so it has no log-linear fit; the Q route
    # floors the weight and is finite, and the vanishing rho fails the check
    cfg = write_config(tmp_path, "zero.json", {
        "map": {"id": "cat"}, "weight": {"id": "constant", "value": 0.0},
        "m_max": 5, "mc_samples": 64,
    })
    out = str(tmp_path / "outz")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["bounds", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 2
    b = reports.read_json(out + "/bounds.json")
    assert b["failures"] == ["kitaev"]
    assert not b["kitaev"]["pass"] and b["kitaev"]["log_gap"] is None
    assert "rho vanishes" in b["kitaev"]["reason"]
    assert all(r["rho"] == 0.0 for r in b["per_m"])
    # the log of a zero rho is written as the -inf marker
    assert cli.main(["report", "--out", out, "--quiet"]) == 0
    rows = [ln.split() for ln in open(out + "/bounds_curves.dat") if not ln.startswith("#")]
    assert [r[1] for r in rows] == ["-inf"] * 5


def _no_nan(constant):
    """parse_constant for json.loads: NaN is refused; the t grid's Infinity
    (t = inf) is a value of the report."""
    if constant == "NaN":
        raise ValueError("NaN in a report")
    return float(constant)


def test_bounds_vanishing_weight_iterates_fail_kitaev_without_nan(tmp_path, capsys):
    # on the cat map g(x) g(A x) vanishes everywhere for the default bump, so
    # rho is 0 for every m >= 2: the check fails with a reason, and no log
    # of 0 is taken or written
    cfg = write_config(tmp_path, "bump.json", {
        "map": {"id": "cat"}, "weight": {"id": "bump"}, "m_max": 5, "mc_samples": 1024,
    })
    out = str(tmp_path / "outb")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["bounds", "--config", cfg, "--out", out])
    assert rc == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with open(out + "/bounds.json") as fh:
        b = json.loads(fh.read(), parse_constant=_no_nan)
    k = b["kitaev"]
    assert b["failures"] == ["kitaev"] and not k["pass"]
    assert k["reason"].startswith("rho vanishes at m = [2, 3, 4, 5]")
    assert k["log_gap"] is None and k["rho_estimate"] is None
    assert "slope" not in k["rho_route"] and "residual" not in k["rho_route"]
    assert 0.0 < k["q_estimate"] < 1.0
    assert "rho vanishes" in capsys.readouterr().out


def test_report_error_is_not_a_config_error(quick_bounds_cfg, tmp_path, monkeypatch):
    out = str(tmp_path / "outre")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["bounds", "--config", quick_bounds_cfg, "--out", out,
                         "--quiet"]) == 0

    def broken(*a, **k):
        raise ValueError("broken writer")

    monkeypatch.setattr(reports, "write_columns", broken)
    with pytest.raises(ValueError, match="broken writer"):
        cli.main(["report", "--out", out, "--quiet"])


def test_bounds_negative_control(monkeypatch, tmp_path):
    from hypdet import bounds

    calls = []
    sample = bounds.sample_period

    def counted(sys, p, q, m, *a):
        calls.append(m)
        return sample(sys, p, q, m, *a)

    monkeypatch.setattr(bounds, "sample_period", counted)
    cfg = write_config(tmp_path, "neg.json", {
        "map": {"id": "cat"}, "m_max": 6, "mc_samples": 256, "seed": 3,
        "negative_control": True,
    })
    out = str(tmp_path / "outn")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["bounds", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 2
    # the table's m = 1..6, then only the EXTRAPOLATION_POINTS m the fit reads
    assert calls == [1, 2, 3, 4, 5, 6, 3, 4, 5, 6]


def test_aniso_quick(tmp_path):
    cfg = write_config(tmp_path, "aniso.json", {
        "map": {"eps": 0.0}, "n_max_aniso": 5, "young_trials": 3, "seed": 2,
    })
    out = str(tmp_path / "outa")
    rc = cli.main(["aniso", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 0
    a = reports.read_json(out + "/aniso.json")
    assert all(c["pass"] for c in a["checks"].values())


def test_aniso_diagnostics(tmp_path):
    # the sizes recorded next to the checks are those of the objects the
    # checks built, and the least Young margin is that of the trials
    from hypdet.aniso import blocks as ab
    from hypdet.aniso import partition as ap

    cfg = write_config(tmp_path, "aniso_d.json", {
        "map": {"eps": 0.0}, "n_max_aniso": 4, "young_trials": 3, "seed": 5,
    })
    out = str(tmp_path / "outd")
    assert cli.main(["aniso", "--config", cfg, "--out", out, "--quiet"]) == 0
    diag = reports.read_json(out + "/aniso.json")["diagnostics"]
    sys_, theta, theta_p = maps.builtin_chart_model(0.0)
    margins = [(ap.young_allowance(rhs) - lhs) / rhs
               for lhs, rhs, _ in ap.young_trials(theta, 3, seed=5)]
    assert diag["young"] == {"grid_side": 512, "directions": 9, "offsets": 65,
                             "line_samples": 384, "least_margin": min(margins)}
    assert 0.0 < min(margins)
    it10 = maps.iterate_map(sys_, 10)
    hp, hm = ab.h_exponents(it10, maps.chart_weight, theta, theta_p)
    block = ab.BlockOperator(sys=it10, weight=maps.chart_weight, theta=theta,
                             theta_prime=theta_p, n_max=4, h_plus=hp, h_minus=hm)
    assert diag["compressed"] == {"dim": block.compressed_matrices()[0].shape[0],
                                  "quadrature_points": block.quad_points}
    quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=8)
    assert diag["flat_trace"] == {"lattice_side": quad._W.shape[0],
                                  "x_points": quad.x_points}
    assert quad.x_points > 0 and quad._W.shape == (quad.lattice_side,) * 2


def run_aniso_with_workers(monkeypatch, tmp_path, workers, cfg):
    """aniso.json bytes of one aniso run on a pool of `workers` threads."""
    monkeypatch.setattr(cli, "cpu_count", lambda: workers)
    out = tmp_path / f"w{workers}"
    rc = cli.main(["aniso", "--config", cfg, "--out", str(out), "--quiet"])
    return rc, (out / "aniso.json").read_bytes()


def test_aniso_same_bytes_on_one_and_two_workers(monkeypatch, tmp_path):
    # the chart weight, so the kneading and flat-trace task runs
    cfg = write_config(tmp_path, "aniso_w.json", {
        "map": {"eps": 0.0}, "weight": {"id": "one"}, "n_max_aniso": 4,
        "young_trials": 3, "seed": 3,
    })
    rc1, one = run_aniso_with_workers(monkeypatch, tmp_path, 1, cfg)
    rc2, two = run_aniso_with_workers(monkeypatch, tmp_path, 2, cfg)
    assert rc1 == rc2 == 0
    assert one == two


@pytest.mark.parametrize("target", [
    "hypdet.aniso.blocks.kneading_check",  # the kneading and flat-trace task
    "hypdet.aniso.partition.young_check",  # one Young trial
])
def test_aniso_failure_on_the_pool_exits_4(target, monkeypatch, tmp_path):
    from hypdet.errors import SingularResolvent

    def failing(*args, **kwargs):
        raise SingularResolvent(f"injected in {target}")

    monkeypatch.setattr(target, failing)
    cfg = write_config(tmp_path, "aniso_f.json", {
        "map": {"eps": 0.0}, "weight": {"id": "zero"}, "n_max_aniso": 4,
        "young_trials": 2, "seed": 2,
    })
    out = tmp_path / "of"
    assert cli.main(["aniso", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    assert list(out.iterdir()) == []


def test_aniso_raises_the_error_a_serial_run_raises_first(monkeypatch, tmp_path, capsys):
    from hypdet.aniso import blocks
    from hypdet.errors import GridTooCoarse, SingularResolvent

    def failing(exc):
        def f(*args, **kwargs):
            raise exc
        return f

    # the pool task, like a serial run, reaches the flat trace before the
    # kneading blocks
    monkeypatch.setattr(blocks, "FlatTraceQuadrature", failing(GridTooCoarse("flat trace")))
    monkeypatch.setattr(blocks, "BlockOperator", failing(SingularResolvent("kneading")))
    cfg = write_config(tmp_path, "aniso_o.json", {
        "map": {"eps": 0.0}, "n_max_aniso": 4, "young_trials": 1, "seed": 2,
    })
    assert cli.main(["aniso", "--config", cfg, "--out", str(tmp_path / "oo"), "--quiet"]) == 4
    assert "flat trace" in capsys.readouterr().err


def test_aniso_zero_weight(tmp_path):
    cfg = write_config(tmp_path, "aniso0.json", {
        "map": {"eps": 0.0}, "weight": {"id": "zero"},
        "n_max_aniso": 5, "young_trials": 2, "seed": 2,
    })
    out = str(tmp_path / "outz")
    rc = cli.main(["aniso", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 0
    a = reports.read_json(out + "/aniso.json")
    assert a["checks"]["flat_trace"]["partial_sum"] == 0.0
    # no quadrature is built for the zero weight
    assert a["diagnostics"]["flat_trace"] == {"lattice_side": 0, "x_points": 0}
    assert a["diagnostics"]["compressed"] == {"dim": 4, "quadrature_points": 0}


def test_report_merge_and_gaps(quick_resonances_cfg, tmp_path):
    out = str(tmp_path / "outr")
    assert cli.main(["resonances", "--config", quick_resonances_cfg,
                     "--out", out, "--quiet"]) == 0
    rc = cli.main(["report", "--out", out, "--quiet"])
    assert rc == 0
    s = reports.read_json(out + "/summary.json")
    assert "bounds.json" in s["gaps"]
    assert "determinant" in s["reports"]
    assert (tmp_path / "outr" / "zeros_scatter.dat").exists()
    assert (tmp_path / "outr" / "traces.dat").exists()
    first = open(str(tmp_path / "outr" / "traces.dat")).readline()
    assert first.startswith("# config_hash=")


def test_report_flags_mixed_configs(quick_resonances_cfg, tmp_path, capsys):
    out = str(tmp_path / "outm")
    assert cli.main(["resonances", "--config", quick_resonances_cfg,
                     "--out", out, "--quiet"]) == 0
    assert cli.main(["report", "--out", out, "--quiet"]) == 0
    s = reports.read_json(out + "/summary.json")
    assert not s["mixed_config"]
    assert set(s["config_hashes"]) == {"determinant.json", "match.json"}
    assert "different configs" not in capsys.readouterr().err
    # an aniso report from another config joins the same directory
    cfg = write_config(tmp_path, "aniso_m.json", {
        "map": {"eps": 0.0}, "weight": {"id": "zero"},
        "n_max_aniso": 4, "young_trials": 1, "seed": 2,
    })
    assert cli.main(["aniso", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(["report", "--out", out, "--quiet"]) == 0
    s = reports.read_json(out + "/summary.json")
    hashes = s["config_hashes"]
    assert s["mixed_config"]
    assert hashes["determinant.json"] == hashes["match.json"] != hashes["aniso.json"]
    assert hashes["aniso.json"] == s["reports"]["aniso"]["meta"]["config_hash"]
    assert "different configs" in capsys.readouterr().err


def test_report_empty_dir(tmp_path):
    with pytest.raises(MissingArtifacts):
        cli.cmd_report(str(tmp_path / "nothing_here"))
    rc = cli.main(["report", "--out", str(tmp_path / "nothing_here")])
    assert rc == 4


@pytest.mark.parametrize("name,payload", [
    ("bounds.json", '{"meta": {"config_hash": "x", "seed": 1}, "per_m": ['),
    # the next two parse, but have no meta.config_hash and meta.seed
    ("match.json", "[]"),
    ("match.json", "{}"),
], ids=["truncated", "list", "no-meta"])
def test_report_truncated_json_is_a_bad_artifact(name, payload, tmp_path, capsys):
    (tmp_path / name).write_text(payload)
    assert cli.main(["report", "--out", str(tmp_path), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert name in err and len(err.strip().splitlines()) == 1


def test_config_error_exit_code(tmp_path):
    bad = write_config(tmp_path, "bad.json", {"p": -1.0, "q": -1.0})
    assert cli.main(["bounds", "--config", bad, "--out", str(tmp_path)]) == 3


QUICK_RESONANCES = {"map": {"id": "cat"}, "N_det": 8, "n_freq": 6, "top_k": 8}


@pytest.mark.parametrize("command,payload", [
    # a radius or tolerance of 0 or less matches nothing, so the match passed
    *(("resonances", {**QUICK_RESONANCES, key: v})
      for key in ("det_radius", "match_tol") for v in (-1.0, 0.0)),
    # numpy's generators refuse a negative seed, with a traceback and exit 1
    ("bounds", {"map": {"id": "cat"}, "m_max": 5, "mc_samples": 64, "seed": -10}),
    ("resonances", {**QUICK_RESONANCES, "seed": -3}),
    ("aniso", {"n_max_aniso": 4, "young_trials": 1, "seed": -1}),
])
def test_nonpositive_radius_or_tolerance_and_negative_seed_are_config_errors(
        command, payload, tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", payload)
    assert cli.main([command, "--config", bad, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["resonances", "bounds", "aniso"])
def test_negative_seed_flag_is_a_config_error(command, tmp_path, capsys):
    assert cli.main([command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("config error: seed")
    assert not (tmp_path / "o").exists()


def test_seed_and_out_flags_override_the_config(tmp_path):
    path = write_config(tmp_path, "cfg.json", {"seed": 5, "output_dir": "x"})
    cfg = cli._load_config(path, {"seed": 0, "output_dir": "y"})
    assert (cfg.seed, cfg.output_dir) == (0, "y")
    assert cli._load_config(path, {"seed": None, "output_dir": None}) == \
        cli.RunConfig(seed=5, output_dir="x")


# (command, map id) -> the map the command runs; a pair not listed is refused
RUNS = {
    ("resonances", None): "cat", ("resonances", "cat"): "cat",
    ("resonances", "perturbed_cat"): "perturbed_cat",
    ("bounds", None): "cat", ("bounds", "cat"): "cat",
    ("bounds", "perturbed_cat"): "perturbed_cat",
    ("aniso", None): "chart", ("aniso", "chart"): "chart",
}


@pytest.mark.parametrize("command", ["resonances", "bounds", "aniso"])
@pytest.mark.parametrize("map_id", [None, "cat", "perturbed_cat", "chart"])
def test_each_command_runs_only_its_own_maps(command, map_id, monkeypatch, tmp_path, capsys):
    ran = []
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda cfg, system, quiet=False: ran.append(system) or 0)
    cfg = write_config(tmp_path, "map.json", {} if map_id is None else {"map": {"id": map_id}})
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    if (command, map_id) in RUNS:
        assert rc == 0
        (system,) = ran
        name = (system[0] if command == "aniso" else system).name
        assert name == RUNS[command, map_id]
    else:
        assert rc == 3 and not ran
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,payload", [
    ("resonances", {"map": {"id": "cat", "eps": 0.06}}),
    ("bounds", {"map": {"id": "perturbed_cat", "eps": -0.06}}),
    ("aniso", {"map": {"eps": 0.06}}),
    ("aniso", {"map": {"id": "chart", "seed": 3}}),  # the chart model has no seed
    ("bounds", {"m_max": 4}),  # the growth-rate fit needs m = 2..5
    # within PERTURBATION_BOUND, but det DT reaches -0.158 on the torus
    ("resonances", {"map": {"id": "perturbed_cat", "eps": 0.05, "seed": 3}}),
])
def test_map_the_command_cannot_build_is_a_config_error(command, payload, tmp_path, capsys):
    bad = write_config(tmp_path, "bad_map.json", payload)
    assert cli.main([command, "--config", bad, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,payload", [
    ("resonances", {"map": {"id": "cat"}, "weight": {"id": "constant", "value": 2.0},
                    "N_det": 6, "n_freq": 6}),
    ("bounds", {"map": {"id": "cat"}, "m_max": 6, "mc_samples": 64}),
    ("aniso", {"weight": {"id": "zero"}, "n_max_aniso": 4, "young_trials": 1}),
])
def test_each_run_builds_its_map_and_weight_once(command, payload, monkeypatch, tmp_path):
    from hypdet import maps

    calls = []

    def counted(name, fn):
        def wrapper(*a, **k):
            calls.append(name)
            return fn(*a, **k)
        return wrapper

    for mod, name in ((maps, "make_map"), (maps, "builtin_chart_model"),
                      (cli, "build_weight"), (cli, "aniso_weight")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    cfg = write_config(tmp_path, "once.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0
    if command == "aniso":
        assert calls == ["builtin_chart_model", "aniso_weight"]
    else:
        assert calls == ["make_map", "build_weight"]


@pytest.mark.parametrize("command,weight", [
    ("resonances", {"id": "zero"}),  # a chart-model weight on a torus map
    ("bounds", {"id": "zero"}),
    ("resonances", {"id": "constant", "value": "five"}),
    ("aniso", {"id": "constant", "value": 5.0}),  # aniso runs one and zero only
    ("aniso", {"id": "zer0"}),
    ("bounds", {"id": "expression", "terms": {"one": "a"}}),  # a coefficient that is no number
])
def test_weight_spec_the_command_does_not_run_is_a_config_error(command, weight, tmp_path,
                                                                 capsys):
    bad = write_config(tmp_path, "weight.json", {"weight": weight})
    assert cli.main([command, "--config", bad, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("weight", [
    *({"id": "constant", "value": v} for v in (None, [], {})),
    *({"id": "bump", "width": v} for v in (None, [], {})),
    *({"id": "bump", "center": [0.5, v]} for v in (None, [], {})),
    {"id": "bump", "center": 5},  # a center that is not a list of two
    {"id": "bump", "center": [0.5]},
    *({"id": "expression", "terms": {"one": v}} for v in (None, [], {})),
    *({"id": "expression", "terms": v} for v in (None, [], 5, {})),  # not an object of terms
    # json.load reads NaN and Infinity
    *({"id": "constant", "value": v} for v in (math.nan, math.inf)),
    {"id": "bump", "width": math.inf},
    {"id": "bump", "center": [math.nan, 0.5]},
    {"id": "expression", "terms": {"one": 1.0, "cos1": -math.inf}},
    # a bump of no width divides 0 by 0 at its centre; a negative one is no bump
    *({"id": "bump", "width": v} for v in (0, -0.25)),
])
def test_weight_number_of_wrong_type_is_a_config_error(weight, tmp_path, capsys):
    bad = write_config(tmp_path, "weight.json", {"weight": weight})
    assert cli.main(["bounds", "--config", bad, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("config error: weight.")
    assert not (tmp_path / "o").exists()


def test_run_config_roundtrip():
    cfg = cli.RunConfig.from_dict({
        "map": {"id": "perturbed_cat", "eps": 0.02, "seed": 3},
        "weight": {"id": "constant", "value": 2.0}, "p": 2.0, "q": -0.5,
        "N_det": 9, "m_max": 5, "mc_samples": 100, "n_max_aniso": 4, "n_freq": 6,
        "det_radius": 2.5, "match_tol": 1e-5, "top_k": 10, "young_trials": 3,
        "r_smoothness": 9.0, "negative_control": True, "seed": 11, "output_dir": "x",
    })
    d = cfg.to_dict()
    flat = {**{f"map.{k}": v for k, v in d.pop("map").items()}, **d}
    assert len(flat) == len(dataclasses.fields(cfg))
    assert cli.RunConfig.from_dict(cfg.to_dict()) == cfg
    # the default r_smoothness, +inf, reads back
    assert cli.RunConfig.from_dict(cli.RunConfig().to_dict()) == cli.RunConfig()
    # every field was read from the config: none kept its default
    default = cli.RunConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(cfg))


@pytest.mark.parametrize("payload", [
    {"negative_control": "false"},  # a string for a bool
    {"N_det": "12"},  # a string for an int
    {"p": "1.0"},  # a string for a float
    {"N_det": 12.7},  # a non-integer for an int
    {"N_det": True},  # a bool for an int
    {"det_radius": False},  # a bool for a float
    {"map": {"id": "cat", "seed": 1.5}},
    [],  # a top level that is not an object
    {"map": 5},  # a map that is not an object
    # json.load reads NaN and Infinity; r_smoothness alone may be +inf
    {"map": {"id": "perturbed_cat", "eps": math.nan}},
    {"det_radius": math.nan},
    {"match_tol": math.inf},
    {"p": math.inf},
    {"r_smoothness": math.nan},
    {"r_smoothness": -math.inf},
])
def test_config_value_of_wrong_type_rejected(payload, tmp_path):
    with pytest.raises(ValueError):
        cli.RunConfig.from_dict(payload)
    bad = write_config(tmp_path, "typed.json", payload)
    assert cli.main(["resonances", "--config", bad, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("payload", [
    {"n_freqs": 8, "map": {"id": "cat", "sead": 3}},  # misspelt at both levels
    {"n_freqs": 8},
    {"map": {"id": "cat", "sead": 3}},
    {"eps": 0.01},  # a map key outside "map"
])
def test_config_unknown_key_rejected(payload, tmp_path):
    with pytest.raises(ValueError, match="unknown config keys"):
        cli.RunConfig.from_dict(payload)
    bad = write_config(tmp_path, "unknown.json", payload)
    assert cli.main(["resonances", "--config", bad, "--out", str(tmp_path)]) == 3


def test_shipped_configs_have_only_known_keys():
    for path in sorted(pathlib.Path(__file__).parent.parent.glob("configs/*.json")):
        cli.RunConfig.from_dict(json.loads(path.read_text()))


def test_config_int_accepted_for_float():
    cfg = cli.RunConfig.from_dict({"p": 2, "q": -1, "det_radius": 2})
    assert (cfg.p, cfg.q, cfg.det_radius) == (2.0, -1.0, 2.0)
    assert all(type(v) is float for v in (cfg.p, cfg.q, cfg.det_radius))
    assert cfg.meta("x") == cli.RunConfig(p=2.0, q=-1.0, det_radius=2.0).meta("x")


def test_finite_r_warning(tmp_path):
    with pytest.warns(UserWarning, match="spectral hypotheses"):
        cli.RunConfig.from_dict({"p": 2.0, "q": -2.0, "r_smoothness": 4.0})


def test_weight_expressions():
    w, hat = cli.build_weight({"id": "expression", "terms": {"one": 0.5, "cos1": 0.25}})
    x = np.array([[0.0, 0.3]])
    assert abs(w(x)[0] - 0.75) < 1e-15
    assert hat == (((-1, 0), (0, 0), (1, 0)), (0.125, 0.5, 0.125))
    with pytest.raises(ValueError):
        cli.build_weight({"id": "expression", "terms": {"nope": 1.0}})
    wb, hat = cli.build_weight({"id": "bump", "center": [0.5, 0.5], "width": 0.2})
    assert hat is None  # no trigonometric polynomial
    assert wb(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)
    assert wb(np.array([[0.9, 0.1]]))[0] == 0.0


def random_expression(seed):
    rng = np.random.default_rng(seed)
    return {"id": "expression",
            "terms": {k: float(rng.uniform(-2, 2)) for k in cli.WEIGHT_BASIS}}


@pytest.mark.parametrize("spec", [
    *({"id": "expression", "terms": {k: 1.0}} for k in cli.WEIGHT_BASIS),
    {"id": "constant", "value": -0.7},
    random_expression(3),
], ids=lambda spec: "-".join(spec.get("terms", {"constant": 0})))
def test_weight_callable_is_its_declared_fourier_sum(spec):
    w, (js, cs) = cli.build_weight(spec)
    assert list(js) == sorted(set(js))
    x = np.random.default_rng(5).uniform(0.0, 1.0, size=(1000, 2))
    series = sum(c * np.exp(2j * np.pi * (x @ np.array(j))) for j, c in zip(js, cs))
    assert np.max(np.abs(w(x) - series)) <= 1e-15


def test_resonances_refuses_the_bump_and_bounds_runs_it(tmp_path, capsys):
    cfg = write_config(tmp_path, "bump.json", {
        "map": {"id": "cat"}, "weight": {"id": "bump"}, "N_det": 6, "n_freq": 6,
        "m_max": 5, "mc_samples": 64,
    })
    out = tmp_path / "o"
    assert cli.main(["resonances", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Fourier coefficients" in err
    assert not out.exists()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["bounds", "--config", cfg, "--out", str(out), "--quiet"])
    # it runs to its reports; whether its checks pass is not at issue here
    assert code in (0, 2) and (out / "bounds.json").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "det.json", {
        "map": {"id": "perturbed_cat", "eps": 0.01, "seed": 0},
        "m_max": 6, "mc_samples": 256, "seed": 9,
    })
    outs = []
    for name in ("d1", "d2"):
        out = str(tmp_path / name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["bounds", "--config", cfg, "--out", out,
                             "--quiet"]) == 0
        outs.append(out)
    for fname in ("bounds.json", "bounds.csv"):
        a = open(outs[0] + "/" + fname, "rb").read()
        b = open(outs[1] + "/" + fname, "rb").read()
        assert a == b


def test_aniso_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "aniso_r.json", {
        "map": {"eps": 0.0}, "n_max_aniso": 4, "young_trials": 2, "seed": 3,
    })
    reps = []
    for name in ("a1", "a2"):
        out = str(tmp_path / name)
        assert cli.main(["aniso", "--config", cfg, "--out", out, "--quiet"]) == 0
        reps.append(open(out + "/aniso.json", "rb").read())
    assert reps[0] == reps[1]


@pytest.mark.parametrize("payload", [
    None,  # the shipped configs/bounds.json
    {"map": {"id": "perturbed_cat", "eps": 0.03, "seed": 1},
     "weight": {"id": "expression", "terms": {"one": 1.0, "cos1": 0.5, "sin2": 0.25}},
     "m_max": 6, "mc_samples": 1024},
])
def test_bounds_same_bytes_on_one_and_two_blas_threads(payload, tmp_path):
    # every bounds report byte is the same with one and two OpenBLAS threads
    cfg = (str(pathlib.Path(__file__).parents[1] / "configs" / "bounds.json")
           if payload is None else write_config(tmp_path, "bounds_b.json", payload))
    src = str(pathlib.Path(cli.__file__).parents[1])
    run = "import sys; from hypdet import cli; sys.exit(cli.main(sys.argv[1:]))"
    reps = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-W", "ignore", "-c", run, "bounds", "--config", cfg,
                        "--out", str(out), "--quiet"], env=env, check=True)
        reps.append([(out / f).read_bytes() for f in ("bounds.json", "bounds.csv")])
    assert reps[0] == reps[1]


def test_aniso_same_bytes_on_one_and_two_blas_threads(tmp_path):
    # the flat-trace kernel and every other aniso check give the same bits
    # with one and two OpenBLAS threads; the kneading residual is a roundoff
    # measurement of LAPACK calls that do not, so its value is masked
    cfg = write_config(tmp_path, "aniso_b.json", {
        "map": {"eps": 0.0}, "weight": {"id": "one"}, "n_max_aniso": 6,
        "young_trials": 2, "seed": 7,
    })
    src = str(pathlib.Path(cli.__file__).parents[1])
    run = "import sys; from hypdet import cli; sys.exit(cli.main(sys.argv[1:]))"
    texts, residuals = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", run, "aniso", "--config", cfg,
                        "--out", str(out), "--quiet"], env=env, check=True)
        text = (out / "aniso.json").read_text()
        residuals.append(json.loads(text)["checks"]["kneading"]["max_rel_err"])
        masked, count = re.subn(r'"max_rel_err": [^,\n]+', '"max_rel_err": _', text)
        assert count == 1
        texts.append(masked)
    assert texts[0] == texts[1]
    assert max(residuals) <= 1e-8
