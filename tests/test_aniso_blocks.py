import gc
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from hypdet import maps
from hypdet.aniso import blocks as ab
from hypdet.aniso import partition as ap
from hypdet.aniso.partition import dyadic_partition_eval
from hypdet.errors import EmptyConstraintSet, SingularResolvent


@pytest.fixture(scope="module")
def chart0():
    return maps.builtin_chart_model(0.0)


@pytest.fixture(scope="module")
def block(chart0):
    # compressed_matrices arguments of the chart map itself at n_max 6
    sys_, theta, theta_p = chart0
    hp, hm = ab.h_exponents(sys_, maps.chart_weight, theta, theta_p)
    return dict(sys=sys_, weight=maps.chart_weight, theta=theta, theta_prime=theta_p,
                n_max=6, h_plus=hp, h_minus=hm)


@pytest.fixture(scope="module")
def iter10(chart0):
    sys_, theta, theta_p = chart0
    it = maps.iterate_map(sys_, 10)
    hp, hm = ab.h_exponents(it, maps.chart_weight, theta, theta_p)
    return it, hp, hm


def _sector_sup_inf_oracle():
    """Closed-form constrained sup/inf for DT^tr = diag(1/2, 2), 35 deg sectors."""
    th = math.radians(35.0)
    # sup over {Mxi not in C'_-}: boundary where image angle from xi2-axis = th
    t_star = math.atan(1.0 / (4.0 * math.tan(th)))
    sup_val = math.sqrt(math.cos(t_star) ** 2 / 4.0 + 4.0 * math.sin(t_star) ** 2)
    # inf over {xi not in C_+}: attained on the C_+ boundary ray
    inf_val = math.sqrt(math.cos(th) ** 2 / 4.0 + 4.0 * math.sin(th) ** 2)
    return sup_val, inf_val


def test_h_exponents_oracle(chart0):
    sys_, theta, theta_p = chart0
    hp, hm = ab.h_exponents(sys_, maps.chart_weight, theta, theta_p)
    sup_val, inf_val = _sector_sup_inf_oracle()
    assert hp == math.floor(math.log2(sup_val)) + 6
    assert hm == math.floor(math.log2(inf_val)) - 6


def test_h_exponents_scaling_shift(chart0):
    sys_, theta, theta_p = chart0
    for k in (1, 3):
        fac = 2.0**k
        scaled = maps.MapSystem(
            name="scaled",
            forward=lambda x, f=fac: f * sys_.forward(x),
            inverse=None,
            jacobian=lambda x, f=fac: f * sys_.jacobian(x),
            weight=sys_.weight, box=sys_.box,
        )
        hp, hm = ab.h_exponents(scaled, maps.chart_weight, theta, theta_p)
        hp0, hm0 = ab.h_exponents(sys_, maps.chart_weight, theta, theta_p)
        assert hp == hp0 + k and hm == hm0 + k


def test_h_exponents_iterated(chart0):
    sys_, theta, theta_p = chart0
    for m in (9, 10, 12):
        it = maps.iterate_map(sys_, m)
        hp, hm = ab.h_exponents(it, maps.chart_weight, theta, theta_p)
        assert hp < 0 < hm


def test_h_exponents_empty_support(chart0):
    sys_, theta, theta_p = chart0
    zero = lambda x: np.zeros(x.shape[0])  # noqa: E731
    with pytest.raises(EmptyConstraintSet):
        ab.h_exponents(sys_, zero, theta, theta_p)


def test_hook_spec_cases():
    assert ab.hook((10, "+"), (6, "+"), h_plus=-4, h_minus=99)
    assert not ab.hook((3, "-"), (7, "-"), h_plus=99, h_minus=5)
    assert ab.hook((2, "+"), (6, "-"), h_plus=-4, h_minus=5)
    assert not ab.hook((2, "-"), (6, "+"), h_plus=99, h_minus=-99)


def test_hook_table_brute_force():
    # independent restatement of the three bullet cases
    def hook_oracle(lt, ns, hp, hm):
        (ell, tau), (n, sigma) = lt, ns
        if (tau, sigma) == ("+", "+"):
            return n <= ell + hp
        if (tau, sigma) == ("-", "-"):
            return ell + hm <= n
        if (tau, sigma) == ("+", "-"):
            return (n >= hm) or (ell >= -hp)
        return False

    for hp, hm in ((-4, 3), (5, -6), (0, 0), (-1, 1)):
        mask = ab.hook_mask(6, hp, hm)
        idx = ab.band_indices(6)
        for j, lt in enumerate(idx):
            for i, ns in enumerate(idx):
                assert mask[i, j] == hook_oracle(lt, ns, hp, hm)


def test_triangularity_products(chart0, iter10):
    sys_, theta, theta_p = chart0
    it10, hp10, hm10 = iter10
    it12 = maps.iterate_map(sys_, 12)
    hp12, hm12 = ab.h_exponents(it12, maps.chart_weight, theta, theta_p)
    m10 = ab.hook_mask(6, hp10, hm10)
    m12 = ab.hook_mask(6, hp12, hm12)
    assert ab.triangularity_product_check([m10])
    assert ab.triangularity_product_check([m10, m12, m10])
    bad = m10.copy()
    bad[4, 4] = True  # an unlinked diagonal block forced into the mask
    assert not ab.triangularity_product_check([bad])


def test_split_masks_complementary(block):
    mb = ab.hook_mask(block["n_max"], block["h_plus"], block["h_minus"])
    mc = ~mb
    assert np.all(mb ^ mc)


def test_flat_trace_linear_chart(chart0):
    sys_, theta, theta_p = chart0
    quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=8)
    partial = quad.partial_sum(8)
    assert abs(partial - quad.chi_trace(8)) <= 1e-8  # telescoping
    assert abs(partial - 2.0 * maps.chart_weight(np.zeros((1, 2)))[0]) <= 1e-3
    assert ab.fixed_point_sum(sys_, maps.chart_weight) == pytest.approx(2.0, abs=1e-9)


def test_flat_trace_telescoping_all_orders(chart0):
    sys_, theta, theta_p = chart0
    quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=6)
    for n0 in (2, 4, 6):
        assert abs(quad.partial_sum(n0) - quad.chi_trace(n0)) <= 1e-8


def _kernel_by_powers(phase, w, j):
    """W[j1, j2] = sum_x w E1^{j1} E2^{j2} with E = e^{i phase}, from numpy's
    integer powers of the unit phases E1 and E2."""
    E1, E2 = np.exp(1j * phase[:, 0]), np.exp(1j * phase[:, 1])
    P1 = (w[:, None] * E1[:, None] ** j[None, :]).T
    return P1 @ E2[:, None] ** j[None, :]


def _kernel_and_reference(monkeypatch, sys_, weight, theta_p):
    """W of a FlatTraceQuadrature at n0_max 4, the arguments its _phase_kernel
    call got, and _kernel_by_powers of them."""
    seen = {}
    kernel = ab._phase_kernel

    def spy(phase, w, j):
        seen.update(phase=phase, w=w, j=j)
        return kernel(phase, w, j)

    monkeypatch.setattr(ab, "_phase_kernel", spy)
    W = ab.FlatTraceQuadrature(sys_, weight, theta_p, n0_max=4)._W
    return W, seen, _kernel_by_powers(**seen)


def test_flat_trace_kernel_from_phase_blocks(chart0, monkeypatch):
    sys_, theta, theta_p = chart0
    W, seen, ref = _kernel_and_reference(monkeypatch, sys_, maps.chart_weight, theta_p)
    assert seen["w"].size > ab.W_BLOCK  # more than one block of x points
    assert np.max(np.abs(W - ref.real)) <= 1e-13 * np.max(np.abs(ref))


def shifted_weight(x):
    """The chart bump moved off the fixed point at the origin."""
    return maps.chart_weight(x - np.array([0.0, 0.55]))


def test_flat_trace_no_fixed_point(chart0):
    sys_, theta, theta_p = chart0
    quad = ab.FlatTraceQuadrature(sys_, shifted_weight, theta_p, n0_max=8)
    assert ab.fixed_point_sum(sys_, shifted_weight) == 0.0
    assert abs(quad.partial_sum(8)) <= 1e-3


def test_flat_trace_kernel_is_real_part_for_odd_weight(chart0, monkeypatch):
    # the shifted weight is not even, so W itself is not real: the kernel
    # must keep Re W, mirrored bit for bit, and drop a part that matters
    sys_, theta, theta_p = chart0
    W, _, ref = _kernel_and_reference(monkeypatch, sys_, shifted_weight, theta_p)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) >= 0.1 * scale
    assert np.max(np.abs(W - ref.real)) <= 1e-13 * scale
    assert np.array_equal(W, W[::-1, ::-1])


def test_band_trace_is_full_lattice_sum(chart0):
    # each band is summed on its annulus only; the full-lattice sum of the
    # band's partition function times W is the same trace
    sys_, theta, theta_p = chart0
    quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=8)
    n_half = quad._W.shape[0] // 2
    t = np.arange(-n_half, n_half + 1) * quad.dxi
    lattice = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    for n in range(9):
        for s in "+-":
            vals = dyadic_partition_eval(theta_p, n, s, lattice)
            full = np.sum(vals * quad._W.ravel()) * quad.dxi**2 / ab.TWO_PI**2
            assert quad.band_trace(n, s) == pytest.approx(full, rel=1e-14, abs=0.0)


def test_flat_traces_same_bits_in_one_block(chart0, monkeypatch):
    # band and chi traces over lattices of several EVAL_BLOCK blocks keep
    # every bit when the whole lattice is one block
    sys_, theta, theta_p = chart0
    quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=6)
    assert quad._W.size > 2 * ap.EVAL_BLOCK

    def traces():
        return [quad.band_trace(n, s) for n in range(7) for s in "+-"] + [quad.chi_trace(6)]

    blocked = traces()
    monkeypatch.setattr(ap, "EVAL_BLOCK", quad._W.size)
    assert np.array_equal(np.array(blocked).view(np.uint64),
                          np.array(traces()).view(np.uint64))


def test_quadrature_freed_at_del_after_fixed_point_value(chart0):
    # the oracle shares no object with the quadrature, so the quadrature's
    # lattice arrays go at del, not when the cyclic collector next runs
    sys_, theta, theta_p = chart0
    quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=2)
    gc.disable()
    try:
        assert ab.fixed_point_sum(sys_, maps.chart_weight) == pytest.approx(2.0, abs=1e-9)
        ref = weakref.ref(quad)
        del quad
        assert ref() is None
    finally:
        gc.enable()


def _traced_peak_mb(run):
    """Peak of the memory tracemalloc traces (numpy's arrays included) while
    run() runs, in MB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_flat_trace_working_set(chart0):
    sys_, theta, theta_p = chart0

    def run():
        quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=8)
        quad.partial_sum(8)
        quad.chi_trace(8)

    assert _traced_peak_mb(run) < 80.0


def test_compressed_build_working_set(chart0, iter10):
    sys_, theta, theta_p = chart0
    it10, hp10, hm10 = iter10

    def run():
        ab.compressed_matrices(it10, maps.chart_weight, theta, theta_p, 6, hp10, hm10)

    assert _traced_peak_mb(run) < 60.0


def test_compressed_coefficients_match_one_gemm(block, chart0):
    # the blocked x-sum of the raw coefficients, with e^{-i eta.x} gathered
    # from per-axis tables, against both phase tables taken as direct
    # exponentials over every quadrature point and one gemm; with the chart
    # weight and with it moved, whose quadrature grid is not square
    sys_, theta, theta_p = chart0
    quads = []
    for weight in (maps.chart_weight, shifted_weight):
        b = {**block, "weight": weight}
        bands = ab.band_indices(b["n_max"])
        modes_out, modes_in = ab._band_mode_lists(theta, theta_p, bands)
        eta, xi = np.vstack(modes_out), np.vstack(modes_in)
        quad = ab._quad_grid(weight, b["n_max"])
        (t1, t2), k, w = quad
        grid = np.stack(np.meshgrid(t1, t2, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.array_equal(k, np.flatnonzero(weight(grid) > 1e-15))
        X = grid[k]
        assert w.size > 2 * ab.W_BLOCK
        phase_in = np.exp(1j * (sys_.forward(X) @ xi.T))
        phase_out = np.exp(-1j * (X @ eta.T)) * w[:, None]
        ref = phase_out.T @ phase_in / (2.0 * ab.CHART_GRID.box_half) ** 2
        C = ab._coefficients(sys_, quad, eta, xi)
        assert np.max(np.abs(C - ref)) <= 1e-14 * np.max(np.abs(ref))
        quads.append(quad)
    assert not np.array_equal(*quads[1][0])


def test_flat_trace_kernel_same_bits_on_one_and_two_blas_threads():
    # the W_BLOCK gemms are not split along the points differently by the
    # two thread counts, so W has one set of bits
    src = str(pathlib.Path(ab.__file__).parents[2])
    run = ("import hashlib; from hypdet import maps; from hypdet.aniso import blocks; "
           "s, th, thp = maps.builtin_chart_model(0.0); "
           "q = blocks.FlatTraceQuadrature(s, maps.chart_weight, thp, n0_max=8); "
           "print(hashlib.sha256(q._W.tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        digests.add(subprocess.run([sys.executable, "-c", run], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert len(digests) == 1


def test_band_traces_sum_to_chi_trace(chart0):
    sys_, theta, theta_p = chart0
    quad = ab.FlatTraceQuadrature(sys_, maps.chart_weight, theta_p, n0_max=4)
    vals = [quad.band_trace(n, s) for n in range(5) for s in "+-"]
    assert abs(sum(vals) - quad.chi_trace(4)) <= 1e-10
    # scaling the weight scales every diagonal trace linearly
    half = lambda x: 0.5 * maps.chart_weight(x)  # noqa: E731
    quad_h = ab.FlatTraceQuadrature(sys_, half, theta_p, n0_max=4)
    assert quad_h.partial_sum(4) == pytest.approx(0.5 * quad.partial_sum(4), rel=1e-12)


def test_band_modes_on_the_annulus_are_those_of_the_lattice(chart0):
    # the modes each band picks on its annulus are those it picks on the
    # whole chart lattice, for every n <= 6 and sigma; with the chart's
    # theta_prime (== theta) and with another one, so that both branches
    # of _band_mode_lists run
    sys_, theta, theta_p = chart0
    other = maps.Polarization(math.radians(10.0), math.radians(30.0),
                              math.radians(95.0), math.radians(30.0))
    assert theta_p == theta and other != theta
    f = ab.CHART_GRID.xi_1d()
    lattice = np.stack(np.meshgrid(f, f, indexing="ij"), axis=-1).reshape(-1, 2)
    bands = ab.band_indices(6)
    want = {(t, n, s): ab.band_modes(lattice, t, n, s)
            for t in (theta, other) for n, s in bands}
    for prime in (theta_p, other):
        modes_out, modes_in = ab._band_mode_lists(theta, prime, bands)
        for (n, s), mo, mi in zip(bands, modes_out, modes_in):
            for got, t in ((mo, prime), (mi, theta)):
                ref = want[(t, n, s)]
                assert got.shape == ref.shape and got.shape[0] > 0, (n, s)
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (n, s)


def test_kneading_full(chart0, iter10):
    sys_, theta, theta_p = chart0
    it10, hp10, hm10 = iter10
    M, Mb, Mc, _ = ab.compressed_matrices(it10, maps.chart_weight, theta, theta_p, 4,
                                          hp10, hm10)
    assert np.max(np.abs(M - (Mb + Mc))) == 0.0
    zs = 0.1 * np.exp(2j * np.pi * np.arange(8) / 8)
    rep = ab.kneading_check(M, Mb, Mc, zs)
    assert rep["pass"] and rep["max_rel_err"] <= 1e-8
    # triangular mask makes M_b nilpotent: det(Id - z M_b) = 1 exactly
    assert np.linalg.det(np.eye(M.shape[0]) - 0.1 * Mb) == pytest.approx(1.0, abs=1e-12)
    # z = 0: both sides 1
    rep0 = ab.kneading_check(M, Mb, Mc, [0.0])
    assert abs(rep0["rows"][0]["lhs"] - 1.0) == 0.0
    assert abs(rep0["rows"][0]["rhs"] - 1.0) == 0.0


def _per_block_reference(C, modes_out, modes_in, theta, theta_p, n_max, hp, hm):
    """(M, M_b, M_c) from the raw coefficients C one band pair at a time: the
    row band's partition function and the column band's widened multiplier
    on each block, and the hook relation of the pair on its mask."""
    bands = ab.band_indices(n_max)
    off_out = np.cumsum([0] + [m.shape[0] for m in modes_out])
    off_in = np.cumsum([0] + [m.shape[0] for m in modes_in])
    M = np.zeros((off_out[-1], off_in[-1]), dtype=complex)
    linked = np.zeros(M.shape, dtype=bool)
    for i, (n, s) in enumerate(bands):
        po = np.asarray(dyadic_partition_eval(theta_p, n, s, modes_out[i]))
        rows = slice(off_out[i], off_out[i + 1])
        for j, (ell, t) in enumerate(bands):
            pi = np.asarray(ap.psi_tilde_eval(theta, ell, t, modes_in[j]))
            cols = slice(off_in[j], off_in[j + 1])
            M[rows, cols] = po[:, None] * C[rows, cols] * pi[None, :]
            linked[rows, cols] = ab.hook((ell, t), (n, s), hp, hm)
    return M, np.where(linked, M, 0.0), np.where(~linked, M, 0.0)


@pytest.mark.parametrize("n_max, m", [(6, 10), (4, 10), (6, 12)])
def test_compressed_matrices_match_per_block_loop(chart0, monkeypatch, n_max, m):
    # one multiplier vector per side and the expanded hook mask give the
    # bits of the per-band-pair products and per-block hook calls, on the
    # same raw coefficients and modes
    sys_, theta, theta_p = chart0
    it = maps.iterate_map(sys_, m)
    hp, hm = ab.h_exponents(it, maps.chart_weight, theta, theta_p)
    seen = {}
    coefficients, mode_lists = ab._coefficients, ab._band_mode_lists

    def spy_coefficients(*args):
        seen["C"] = coefficients(*args)
        return seen["C"]

    def spy_mode_lists(*args):
        seen["modes"] = mode_lists(*args)
        return seen["modes"]

    monkeypatch.setattr(ab, "_coefficients", spy_coefficients)
    monkeypatch.setattr(ab, "_band_mode_lists", spy_mode_lists)
    *got, quad_points = ab.compressed_matrices(it, maps.chart_weight, theta, theta_p,
                                               n_max, hp, hm)
    want = _per_block_reference(seen["C"], *seen["modes"], theta, theta_p, n_max, hp, hm)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (16 * 2 * (n_max + 1),) * 2
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    # both parts of the split hold entries
    assert np.count_nonzero(got[1]) > 0 and np.count_nonzero(got[2]) > 0
    assert quad_points == ab._quad_grid(maps.chart_weight, n_max)[2].size


def test_kneading_random_truncation(rng):
    R = rng.standard_normal((40, 40)) * 0.3
    mask = rng.random((40, 40)) < 0.5
    rep = ab.kneading_check(R, np.where(mask, R, 0.0), np.where(~mask, R, 0.0),
                            0.1 * np.exp(2j * np.pi * np.arange(8) / 8))
    assert rep["pass"]


def test_kneading_singular_resolvent(rng):
    Mb = np.diag([2.0, 1.0])
    M = Mb.copy()
    Mc = np.zeros((2, 2))
    with pytest.raises(SingularResolvent):
        ab.kneading_check(M, Mb, Mc, [0.5 + 1e-14])
