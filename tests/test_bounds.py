import math
import warnings

import numpy as np
import pytest

from hypdet import bounds as bd
from hypdet import cli, maps, orbits
from hypdet.errors import CrossCheckFailed, EmptyWitness, InequalityViolated

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
    rows, _ = bd.bound_table(sys_, point_sets(sys_), 1, -1, (2, 5), n_samples=n_samples,
                             seed=7)
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full, full_cover = bd.bound_table(pcat, pcat_pts, 1, -1, range(1, 6),
                                          n_samples=256, seed=2)
        tail, tail_cover = bd.bound_table(pcat, pcat_pts, 1, -1, range(3, 6),
                                          n_samples=256, seed=2)
    assert [r["m"] for r in full] == [1, 2, 3, 4, 5]
    assert tail == full[2:]  # each row draws from seed + m
    assert {"q_star", "rho_star"} <= set(full[3]) and "rho_star" not in full[4]
    # the counts of q_star_cover for each row with a q_star
    assert [c["m"] for c in full_cover] == [1, 2, 3, 4] and tail_cover == full_cover[2:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row, c in zip(full, full_cover):
            rep = bd.q_star_cover(pcat, 1, -1, 4, row["m"])
            assert (row["q_star"], c) == (rep.pop("q_star"), rep)
    sample = bd.sample_period(pcat, 1, -1, 3, 256, 5)
    assert {k: full[2][k] for k in sample} == sample


def test_appendixB_cat_and_perturbed(cat, cat_pts, point_sets):
    rows, _ = bd.bound_table(cat, cat_pts, 1, -1, range(1, 5), n_samples=512, seed=3)
    rep = bd.appendixB_check(rows, 1, -1)
    assert rep["pass"]
    pc = maps.builtin_perturbed_cat(0.02)
    rows2, _ = bd.bound_table(pc, point_sets(pc), 1, -1, range(1, 4), n_samples=1024, seed=3)
    rep2 = bd.appendixB_check(rows2, 1, -1)
    assert rep2["pass"]


def test_appendixB_zero_weight(cat, point_sets):
    zero = zero_weight(cat)
    rows, _ = bd.bound_table(zero, point_sets(zero), 1, -1, range(1, 3), n_samples=128)
    rep = bd.appendixB_check(rows, 1, -1)
    assert rep["pass"]  # 0 <= 0


def test_appendixB_violation_raises(cat, cat_pts):
    rows, _ = bd.bound_table(cat, cat_pts, 1, -1, range(1, 3), n_samples=64)
    for row in rows:
        row.update({"R_t1": 0.0, "R_t2": 0.0, "R_tinf": 0.0})
    with pytest.raises(InequalityViolated):
        bd.appendixB_check(rows, 1, -1)


def test_appendixB_reads_m_up_to_its_window(cat, cat_pts):
    m_last = bd.APPENDIX_B_M_MAX
    rows, _ = bd.bound_table(cat, cat_pts, 1, -1, (m_last, m_last + 1), n_samples=64)
    rows[1].update({"R_t1": 0.0, "R_t2": 0.0, "R_tinf": 0.0})
    rep = bd.appendixB_check(rows, 1, -1)
    assert rep["pass"] and [r["m"] for r in rep["rows"]] == [m_last]


def q_star_tree_greedy(sys, p, q, k, m, n_samples=64):
    """Oracle: the cover route by itinerary tree and greedy subcover.

    The k x k boxes are closed Chebyshev balls of radius 0.5 / k (with a
    1e-12 slack) about the cell centres, each holding a shifted grid of
    witnesses.  A tree search over the box sequences keeps the itineraries
    whose witnessed intersection is nonempty; each is worth the sup of
    |g^(m)| lambda^{(p,q,m)} / |det DT^m|_{E^u}| on its witnesses.  Returns
    their fsum (full_sum), the value of the weighted greedy subcover of the
    witness cloud as a plain += in greedy order (greedy), and the numbers of
    itineraries and of chosen ones."""
    centers = bd._torus_grid(k)
    radius = 0.5 / k
    side = max(2, int(math.ceil(math.sqrt(n_samples))))
    t = (np.arange(side) + 0.5) / side * 2.0 - 1.0
    local = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    local = (local + np.array([0.6180339887498949, 0.2548776662466927])) % 2.0 - 1.0
    W = ((centers[:, None, :] + local[None, :, :] * radius) % 1.0).reshape(-1, 2)
    members = []
    Y = W.copy()
    for _ in range(m):
        d = Y[:, None, :] - centers[None, :, :]
        members.append(np.abs(d - np.round(d)).max(axis=2).T <= radius + 1e-12)
        Y = sys.forward(Y)
    H, _ = bd._integrand(sys, p, q, m, W, det_unstable=True)
    nodes = [idx for idx in (np.flatnonzero(members[0][e]) for e in range(len(centers)))
             if idx.size]
    for step in range(1, m):
        nodes = [sub for idx in nodes for e in range(len(centers))
                 if (sub := idx[members[step][e, idx]]).size]
    values = [float(H[idx].max()) for idx in nodes]
    # each itinerary's count of witnesses not yet covered, kept up to date
    # through the itineraries that hold each witness
    new = [idx.size for idx in nodes]
    holders = [[] for _ in W]
    for i, idx in enumerate(nodes):
        for w in idx:
            holders[w].append(i)
    covered = np.zeros(len(W), dtype=bool)
    greedy, chosen, remaining = 0.0, 0, set(range(len(nodes)))
    while not covered.all() and remaining:
        best, best_score = None, math.inf
        for i in remaining:
            if new[i] and values[i] / new[i] < best_score - 1e-15:
                best, best_score = i, values[i] / new[i]
        if best is None:
            break
        for w in nodes[best][~covered[nodes[best]]]:
            for i in holders[w]:
                new[i] -= 1
        covered[nodes[best]] = True
        greedy += values[best]
        chosen += 1
        remaining.discard(best)
    return {"full_sum": math.fsum(values), "greedy": greedy,
            "n_itineraries": len(nodes), "n_chosen": chosen}


@pytest.mark.parametrize("n_samples", [64, 128])
@pytest.mark.parametrize("which", ["cat", "pcat", "expression_pcat"])
def test_q_star_equals_tree_and_greedy_oracle(request, which, n_samples):
    # the cells tile the torus and no witness lands on a cell edge, so the
    # witnessed itineraries are disjoint and the greedy keeps every one
    sys_ = request.getfixturevalue(which)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in range(1, 6):
            rep = bd.q_star_cover(sys_, 1, -1, 4, m, n_samples)
            ref = q_star_tree_greedy(sys_, 1, -1, 4, m, n_samples)
            assert rep["q_star"] == ref["full_sum"]
            assert rep["q_star"] == pytest.approx(ref["greedy"], rel=1e-13, abs=0.0)
            assert rep["itineraries"] == ref["n_itineraries"] == ref["n_chosen"]
            assert rep["witnesses"] == 16 * math.ceil(math.sqrt(n_samples)) ** 2


def test_q_star_m1_exact(cat):
    rep = bd.q_star_cover(cat, 0, 0, 4, 1, n_samples=64)
    assert abs(rep["q_star"] - 16.0 * MU) < 1e-9
    assert rep["itineraries"] == 16 and rep["thin"] == 0


def test_q_star_trend_to_pressure(cat):
    roots = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in range(2, 9):
            rep = bd.q_star_cover(cat, 0, 0, 4, m, n_samples=128)
            roots.append(rep["q_star"] ** (1.0 / m))
    assert all(a >= b for a, b in zip(roots, roots[1:]))
    assert abs(roots[-1] - 1.0) <= 0.10  # Q^{0,0} = exp(P_top) = 1


def test_q_star_weight_floor_scaling(cat):
    m = 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals = {}
        for n in (4, 8):
            gn = maps.weight_floor(lambda x: np.zeros(x.shape[0]), n)
            sys_n = cat.with_weight(gn, tag=f"floor{n}")
            vals[n] = bd.q_star_cover(sys_n, 0, 0, 4, m, n_samples=64)["q_star"]
    # constant weight (1/n)^m factors out of the itinerary sums exactly
    assert vals[4] / vals[8] == pytest.approx((8.0 / 4.0) ** m, rel=1e-9)


def test_q_star_floor_monotone_in_n(cat):
    g = lambda x: 0.2 * np.abs(np.sin(2 * np.pi * x[:, 0]))  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals = []
        for n in (3, 4, 6):
            sys_n = cat.with_weight(maps.weight_floor(g, n), tag=f"floor{n}")
            vals.append(bd.q_star_cover(sys_n, 0, 0, 4, 2, n_samples=64)["q_star"])
    assert vals[0] >= vals[1] >= vals[2]


def test_q_star_full_sum_submultiplicative(cat):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = {m: bd.q_star_cover(cat, 1, -1, 4, m, n_samples=64)["q_star"]
             for m in (2, 3, 5)}
    assert f[5] <= f[2] * f[3] * 1.05


def test_q_star_thin_itineraries_warn(cat):
    # 64 witnesses per cell spread over the 4^2 itineraries of each cell by
    # m = 4, some with fewer than 3 witnesses; the count is reported too
    with pytest.warns(EmptyWitness):
        rep = bd.q_star_cover(cat, 1, -1, 4, 4, n_samples=64)
    assert 0 < rep["thin"] <= rep["itineraries"] <= rep["witnesses"]


def test_rho_leq_qstar_rate(cat):
    # Lemma-level comparison at the level of extrapolated m-th roots.  The
    # window stops before the itineraries saturate the witness cloud (each
    # needs a witness of its own, which biases the cover route down).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        per_m = {m: bd.sample_period(cat, 1, -1, m, 512, m)["rho"]
                 for m in range(2, 6)}
        rho_rate = _fit(per_m)["estimate"]
        q_roots = {m: bd.q_star_cover(cat, 1, -1, 4, m, n_samples=256)["q_star"]
                   for m in range(2, 6)}
        q_rate = _fit(q_roots)["estimate"]
    assert rho_rate <= q_rate * 1.05


def test_rho_star_single_element(cat):
    one = [lambda x: np.ones(x.shape[0])]
    rep = bd.rho_star_partition(cat, 1, -1, one, 3)
    assert rep["value"] == pytest.approx(MU**6, rel=1e-10)
    assert rep["n_terms"] == 1


def test_rho_star_trend(cat):
    phis = bd.make_torus_partition(4, width_factor=0.55)
    rep = bd.rho_star_partition(cat, 1, -1, phis, 8, n_grid=64)
    root = rep["value"] ** (1.0 / 8.0)
    assert abs(root - MU) / MU <= 0.15


def test_partition_sums_to_one():
    phis = bd.make_torus_partition(3)
    X = np.random.default_rng(0).uniform(0, 1, (500, 2))
    total = sum(np.asarray(phi(X)) for phi in phis)
    assert np.max(np.abs(total - 1.0)) < 1e-12


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
    rows, _ = bd.bound_table(cat, cat_pts, 1, -1, range(4, 11), n_samples=1024, seed=2)
    rep = bd.kitaev_crosscheck(cat, cat_pts, 1, -1, rows)
    assert rep["pass"] and rep["log_gap"] <= 0.05
    assert abs(rep["rho_estimate"] - 0.381966) < 0.02 * 0.381966
    rows2, _ = bd.bound_table(pcat, pcat_pts, 1, -1, range(4, 9), n_samples=2048,
                              seed=2)
    rep2 = bd.kitaev_crosscheck(pcat, pcat_pts, 1, -1, rows2)
    assert rep2["pass"]


def test_crosscheck_negative_control(cat, cat_pts):
    # q = 0 on the integral route only: the rates genuinely differ
    per_m = {m: bd.sample_period(cat, 1, 0, m, 256, m)["rho"] for m in range(4, 9)}
    rho_mismatched = _fit(per_m)
    q1 = q_estimate(cat, cat_pts, 1, -1, range(4, 9))
    with pytest.raises(CrossCheckFailed):
        bd.compare_routes(rho_mismatched, q1)
