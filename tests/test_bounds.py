import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from hypdet import bounds as bd
from hypdet import cli, maps, orbits
from hypdet.errors import CrossCheckFailed, InequalityViolated

LAM = maps.CAT_LAMBDA
MU = maps.CAT_MU


def zero_weight(sys_):
    return sys_.with_weight(lambda x: np.zeros(x.shape[0]), tag="zero")


def rho_pq_m(sys, p, q, m, n_samples=4096, seed=0):
    """Oracle: the Monte Carlo integral of |g^(m)| lambda^{(p,q,m)} from its
    own draw of n_samples points, with its standard error."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n_samples, 2))
    vals, _ = bd._integrand(sys, p, q, m, X)
    return float(np.mean(vals)), float(np.std(vals) / math.sqrt(n_samples))


def R_pqt_m(sys, p, q, t_grid, m, n_samples=2048, seed=0):
    """Oracle: the sampled sup of |det DT^m|^{-1/t} |g^(m)| lambda^{(p,q,m)}
    for each t in t_grid, from its own draw of n_samples points behind the
    ceil(sqrt(n_samples))^2 torus grid."""
    rng = np.random.default_rng(seed)
    side = max(2, math.ceil(math.sqrt(n_samples)))
    X = np.vstack([bd._torus_grid(side), rng.uniform(0.0, 1.0, size=(n_samples, 2))])
    vals, dets = bd._integrand(sys, p, q, m, X)
    dets = np.abs(dets)
    return [float(np.max(vals if math.isinf(t) else vals * dets ** (-1.0 / t)))
            for t in t_grid]


def test_rho_pq_m_cat(cat):
    s = bd.sample_period(cat, 1, -1, 3, 512, 1)
    assert abs(s["rho"] - LAM**-3) < 1e-10  # constant integrand: MC is exact
    assert s["rho_stderr"] < 1e-12
    s0 = bd.sample_period(cat, 0, 0, 2, 256, 1)
    assert s0["rho"] == pytest.approx(1.0, abs=1e-14)
    assert bd.sample_period(zero_weight(cat), 1, -1, 2, 256, 0)["rho"] == 0.0
    with pytest.raises(ValueError):
        bd.sample_period(cat, 1, 0.5, 2, 16, 0)


@pytest.fixture(scope="module")
def expression_pcat():
    """perturbed_cat at eps 0.03, seed 1, with the weight
    1 + 0.5 cos(2 pi x_1) + 0.25 sin(2 pi x_2)."""
    w, hat = cli.build_weight({"id": "expression",
                               "terms": {"one": 1.0, "cos1": 0.5, "sin2": 0.25}})
    return maps.make_map("perturbed_cat", 0.03, 1).with_weight(w, hat, tag="expression")


@pytest.mark.parametrize("n_samples", [256, 2048, 4096])
@pytest.mark.parametrize("which", ["cat", "expression_pcat"])
def test_bound_table_equals_two_draw_oracles(request, point_sets, which, n_samples):
    # one draw of max(n_samples, 2048) points serves rho (its first
    # n_samples points) and R (the grid and its first 2048 points): bit for
    # bit what one draw for each gave
    sys_ = request.getfixturevalue(which)
    rows = bd.bound_table(sys_, point_sets(sys_), 1, -1, (2, 5), n_samples=n_samples, seed=7)
    for row in rows:
        m = row["m"]
        assert (row["rho"], row["rho_stderr"]) == rho_pq_m(sys_, 1, -1, m, n_samples, 7 + m)
        assert [row["R_t1"], row["R_t2"], row["R_tinf"]] == R_pqt_m(
            sys_, 1, -1, (1.0, 2.0, math.inf), m, seed=7 + m)


def q_estimate(sys_, pts, p, q, periods):
    """q_variational over periods, with their exponents from pts."""
    return bd.q_variational(sys_, pts, periods, p, q)


def _fit(per_m):
    return bd.log_linear_fit(list(per_m), np.log(list(per_m.values())))


def test_log_linear_fit_fits():
    geo = {m: LAM**-m for m in range(1, 8)}
    rep = _fit(geo)
    assert abs(rep["estimate"] - MU) < 1e-3
    const = {m: 0.37 for m in range(1, 6)}
    assert abs(_fit(const)["estimate"] - 1.0) < 1e-12
    pows = {m: 2.0**m for m in range(1, 6)}
    assert abs(_fit(pows)["estimate"] - 2.0) < 1e-12
    # only the largest EXTRAPOLATION_POINTS values of m enter the fit
    transient = {**pows, 1: 50.0}
    assert abs(_fit(transient)["estimate"] - 2.0) < 1e-12
    assert _fit(transient)["residual"] < 1e-12
    with pytest.raises(ValueError):
        _fit({1: 1.0, 2: 1.0, 3: 1.0})


def test_log_linear_fit_poor_fit_flag(rng):
    rows = {m: math.exp(rng.uniform(-2, 2)) for m in range(1, 8)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = _fit(rows)
    assert rep["poor_fit"]


def test_R_pqt_cat(cat):
    s = bd.sample_period(cat, 1, -1, 3, 128, 0)
    for key in ("R_t1", "R_t2", "R_tinf"):
        assert abs(s[key] - LAM**-3) < 1e-10  # area preserving: det factor is 1
    assert abs(bd.sample_period(cat, 0, 0, 2, 128, 0)["R_tinf"] - 1.0) < 1e-12


@pytest.mark.parametrize("m", [6, 8])
def test_R_pqt_det_factor_of_the_cat_map_is_exactly_one(cat, m):
    # |det DT^m| = 1 is the product of m unit per-step determinants; LU on
    # the entries of A^m, which grow like lambda^m, left it 9.1e-12 off at
    # m = 8 (the shipped bounds m_max) and so R_t1 != R_tinf
    s = bd.sample_period(cat, 1, -1, m, 4096, 7 + m)
    assert s["R_t1"] == s["R_t2"] == s["R_tinf"]


def test_R_monotone_in_t_reported(pcat):
    s = bd.sample_period(pcat, 1, -1, 3, 512, 0)
    assert all(s[k] > 0 for k in ("R_t1", "R_t2", "R_tinf"))  # reported, not asserted


def test_bound_table_rows_independent_of_range(pcat, pcat_pts):
    full = bd.bound_table(pcat, pcat_pts, 1, -1, range(1, 6), n_samples=256, seed=2)
    tail = bd.bound_table(pcat, pcat_pts, 1, -1, range(3, 6), n_samples=256, seed=2)
    assert [r["m"] for r in full] == [1, 2, 3, 4, 5]
    assert tail == full[2:]  # each row draws from seed + m
    sample = bd.sample_period(pcat, 1, -1, 3, 256, 5)
    assert {k: full[2][k] for k in sample} == sample


def test_appendixB_cat_and_perturbed(cat, cat_pts, point_sets):
    rows = bd.bound_table(cat, cat_pts, 1, -1, range(1, 5), n_samples=512, seed=3)
    rep = bd.appendixB_check(rows, 1, -1)
    assert rep["pass"]
    pc = maps.builtin_perturbed_cat(0.02)
    rows2 = bd.bound_table(pc, point_sets(pc), 1, -1, range(1, 4), n_samples=1024, seed=3)
    rep2 = bd.appendixB_check(rows2, 1, -1)
    assert rep2["pass"]


def test_appendixB_zero_weight(cat, point_sets):
    zero = zero_weight(cat)
    rows = bd.bound_table(zero, point_sets(zero), 1, -1, range(1, 3), n_samples=128)
    rep = bd.appendixB_check(rows, 1, -1)
    assert rep["pass"]  # 0 <= 0


def test_appendixB_violation_raises(cat, cat_pts):
    rows = bd.bound_table(cat, cat_pts, 1, -1, range(1, 3), n_samples=64)
    for row in rows:
        row.update({"R_t1": 0.0, "R_t2": 0.0, "R_tinf": 0.0})
    with pytest.raises(InequalityViolated):
        bd.appendixB_check(rows, 1, -1)


def test_appendixB_reads_m_up_to_its_window(cat, cat_pts):
    m_last = bd.APPENDIX_B_M_MAX
    rows = bd.bound_table(cat, cat_pts, 1, -1, (m_last, m_last + 1), n_samples=64)
    rows[1].update({"R_t1": 0.0, "R_t2": 0.0, "R_tinf": 0.0})
    rep = bd.appendixB_check(rows, 1, -1)
    assert rep["pass"] and [r["m"] for r in rep["rows"]] == [m_last]


def test_pressure_periodic(cat, cat_pts):
    P = bd.pressure_periodic({m: cat_pts[m] for m in (8, 10)})
    assert abs(P[10] - math.log(LAM)) / math.log(LAM) < 0.02
    empty = orbits.PeriodicPointSet(period=2, points=np.zeros((0, 2)), trace=np.zeros(0),
                                    weights=np.zeros(0), jac_det=np.zeros(0),
                                    lam=np.zeros(0), nu=np.zeros(0), fix_det=np.zeros(0),
                                    cycles=0, newton_steps=0, newton_residual=0.0)
    assert bd.pressure_periodic({2: empty})[2] == -math.inf


def test_q_variational_examples(cat, cat_pts, point_sets):
    rep = q_estimate(cat, cat_pts, 1, -1, range(4, 11))
    assert abs(rep["estimate"] - MU) / MU < 0.02
    rep0 = q_estimate(cat, cat_pts, 0, 0, range(4, 11))
    assert abs(rep0["estimate"] - 1.0) < 0.02
    inv = cat.with_weight(
        lambda x: np.full(x.shape[0], 1.0 / LAM), tag="invlam")
    rep2 = q_estimate(inv, point_sets(inv), 1, -1, range(4, 11))
    assert rep2["estimate"] == pytest.approx(rep["estimate"] / LAM, rel=1e-9)


def test_periodic_exponents_match_splitting_route(point_sets):
    # the lambda, nu each set carries, from the trace of DT^m and the
    # product of the per-step determinants, against the 30-step splitting
    # iteration at every point of Fix(T^m)
    pc = maps.builtin_perturbed_cat(0.05)
    pts = point_sets(pc)
    for m in range(1, 9):
        lam, nu, _, _ = maps.hyperbolicity_exponents(pc, pts[m].points, m)
        assert np.allclose(pts[m].lam, lam, rtol=1e-12, atol=0.0)
        assert np.allclose(pts[m].nu, nu, rtol=1e-12, atol=0.0)


def test_q_pq_bounded_by_scaled_q00(cat, cat_pts):
    # closed-form remark: Q^{p,q} <= lambda^{min(p,-q)} Q^{0,0} on linear maps
    q_pq = q_estimate(cat, cat_pts, 2, -1, range(4, 11))["estimate"]
    q_00 = q_estimate(cat, cat_pts, 0, 0, range(4, 11))["estimate"]
    assert q_pq <= LAM ** -min(2.0, 1.0) * q_00 * 1.01


def test_kitaev_crosscheck(cat, cat_pts, pcat, pcat_pts):
    rows = bd.bound_table(cat, cat_pts, 1, -1, range(4, 11), n_samples=1024, seed=2)
    rep = bd.kitaev_crosscheck(cat, cat_pts, 1, -1, rows)
    assert rep["pass"] and rep["log_gap"] <= 0.05
    assert abs(rep["rho_estimate"] - 0.381966) < 0.02 * 0.381966
    rows2 = bd.bound_table(pcat, pcat_pts, 1, -1, range(4, 9), n_samples=2048, seed=2)
    rep2 = bd.kitaev_crosscheck(pcat, pcat_pts, 1, -1, rows2)
    assert rep2["pass"]


def _kitaev_passes(sys_, pts, p, q, fit_rows, delta):
    """kitaev_crosscheck on the rows with the integral route mutated to
    rho(m) (1 + delta)^m, which moves its growth rate by the factor 1 + delta."""
    mutated = [{**r, "rho": r["rho"] * (1.0 + delta) ** r["m"]} for r in fit_rows]
    try:
        return bd.kitaev_crosscheck(sys_, pts, p, q, mutated)["pass"]
    except CrossCheckFailed:
        return False


def test_kitaev_resolves_a_few_percent_on_the_shipped_config(cat, cat_pts):
    # the shipped run's gap is 0.00501 (rho below Q), so the check fails
    # once the integral route's rate moves by more than +5.66 % or -4.40 %
    path = pathlib.Path(__file__).parents[1] / "configs" / "bounds.json"
    with open(path) as fh:
        cfg = cli.RunConfig.from_dict(json.load(fh))
    assert cfg.map_id == "cat" and cfg.weight == {"id": "one"}
    m_fit = range(cfg.m_max - bd.EXTRAPOLATION_POINTS + 1, cfg.m_max + 1)
    rows = bd.bound_table(cat, cat_pts, cfg.p, cfg.q, m_fit, n_samples=cfg.mc_samples,
                          seed=cfg.seed)
    for delta, passes in ((0.0, True), (0.04, True), (0.07, False),
                          (-0.03, True), (-0.06, False)):
        assert _kitaev_passes(cat, cat_pts, cfg.p, cfg.q, rows, delta) == passes, delta


def _appendixB_passes(rows, delta):
    """appendixB_check on the rows with the integral route mutated to
    (1 + delta) times its integrand: rho and its standard error scale alike."""
    mutated = [{**r, "rho": r["rho"] * (1.0 + delta),
                "rho_stderr": r["rho_stderr"] * (1.0 + delta)} for r in rows]
    try:
        return bd.appendixB_check(mutated, 1, -1)["pass"]
    except InequalityViolated:
        return False


@pytest.mark.parametrize("which,rise_passes,rise_fails", [
    # the integrand is constant, R equals rho and the only slack is the
    # absolute 1e-12: at m = 1, 1e-12 / lambda^-1 = 2.6e-12 relative
    ("cat", 2e-12, 4e-12),
    # the smallest slack is at m = 1, where R_min + 3 sigma lies 10.8 %
    # above rho once sigma scales with it
    ("perturbed_cat", 0.07, 0.14),
])
def test_appendixB_resolves_a_rise_of_rho(cat, point_sets, which, rise_passes, rise_fails):
    sys_ = cat if which == "cat" else maps.builtin_perturbed_cat(0.02)
    rows = bd.bound_table(sys_, point_sets(sys_), 1, -1, range(1, bd.APPENDIX_B_M_MAX + 1),
                          n_samples=1024, seed=3)
    assert _appendixB_passes(rows, rise_passes)
    assert not _appendixB_passes(rows, rise_fails)
    # the inequality is one-sided: no fall of rho, however large, fails it
    assert _appendixB_passes(rows, -0.5) and _appendixB_passes(rows, -1.0)


def test_crosscheck_negative_control(cat, cat_pts):
    # q = 0 on the integral route only: the rates genuinely differ
    per_m = {m: bd.sample_period(cat, 1, 0, m, 256, m)["rho"] for m in range(4, 9)}
    rho_mismatched = _fit(per_m)
    q1 = q_estimate(cat, cat_pts, 1, -1, range(4, 9))
    with pytest.raises(CrossCheckFailed):
        bd.compare_routes(rho_mismatched, q1)
