"""Hyperbolic map models: toral automorphisms, perturbations, chart models.

Every map callable takes a batch of points, an (n, 2) array, and returns
(n, 2) points, (n, 2, 2) Jacobians or (n,) weights; a single point is a batch
with n = 1.  Torus maps act on [0,1)^2, chart models on R^2 with an isolating
box V.  All builtin maps carry analytic Jacobians; no finite differences
anywhere in the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConeViolation, DegenerateDirection, PerturbationTooLarge

TWO_PI = 2.0 * math.pi

CAT_A = np.array([[2, 1], [1, 1]], dtype=float)
CAT_A_INT = np.array([[2, 1], [1, 1]], dtype=np.int64)
# eigenvalues of CAT_A
CAT_LAMBDA = (3.0 + math.sqrt(5.0)) / 2.0
CAT_MU = (3.0 - math.sqrt(5.0)) / 2.0

PERTURBATION_BOUND = 0.05
# the least det DT a perturbed cat map may reach on the torus: T stays a local
# diffeomorphism, and 1 / det DT stays at most 10
JACOBIAN_DET_MARGIN = 0.1
# the vector that stable_direction and unstable_direction push along orbits,
# and how many steps of the orbit they push it along
SPLIT_V0 = np.array([1.0, 0.0])
SPLIT_REF_ITERATIONS = 30
# a pushed vector shorter than this before renormalizing has collapsed
SPLIT_ANGLE_FLOOR = 1e-6


@dataclass(frozen=True)
class MapSystem:
    """A planar hyperbolic diffeomorphism model with weight.

    forward, inverse, jacobian and weight take an (n, 2) batch of points and
    return (n, 2), (n, 2, 2) or (n,) arrays.  Torus maps carry linear_part and
    perturbation, and weight_hat when the weight is a trigonometric
    polynomial; chart maps carry box.
    """

    name: str
    forward: Callable
    inverse: Callable
    jacobian: Callable
    weight: Callable
    params: dict = field(default_factory=dict)
    # chart models: isolating box V (weight support lives inside), (lo, hi) per axis
    box: Optional[tuple] = None
    # torus maps: induced integer matrix A on homology, and the periodic
    # remainder T(x) - A x = eps (sin 2 pi a.x, sin 2 pi b.x) as (eps, a, b)
    # with integer vectors a, b (read by collocation)
    linear_part: Optional[np.ndarray] = None
    perturbation: Optional[tuple] = None
    # torus maps: the weight's Fourier coefficients as (j, c), integer
    # frequencies j and complex c with weight = sum_i c_i e_{j_i}, or None
    # for a weight that is no trigonometric polynomial (read by collocation)
    weight_hat: Optional[tuple] = None

    def with_weight(self, weight: Callable, weight_hat: Optional[tuple] = None,
                    tag: str = "custom"):
        """Same dynamics, different weight, with its coefficients (j, c) or
        None."""
        return replace(self, weight=weight, weight_hat=weight_hat,
                       params={**self.params, "weight": tag})


@dataclass(frozen=True)
class Polarization:
    """Pair of disjoint closed cones with angular cutoff functions (d=2).

    Cones are symmetric double sectors: axis angle plus half-angle, in
    radians.  phi_plus/phi_minus are evaluated on direction angles and
    satisfy phi_plus + phi_minus = 1 with plateaus on the cones.
    """

    axis_plus: float
    half_plus: float
    axis_minus: float
    half_minus: float

    def __post_init__(self):
        gap = _sector_gap(self.axis_plus, self.half_plus, self.axis_minus, self.half_minus)
        if gap <= 0.0:
            raise ConeViolation("cone_plus and cone_minus overlap (gap %.4f rad)" % gap)

    def in_cone_plus(self, v) -> np.ndarray:
        return _angdist(_angle_of(v), self.axis_plus) <= self.half_plus + 1e-15

    def in_cone_minus(self, v) -> np.ndarray:
        return _angdist(_angle_of(v), self.axis_minus) <= self.half_minus + 1e-15

    def phi_plus(self, v) -> np.ndarray:
        """Angular cutoff: 1 on cone_plus, 0 on cone_minus, smooth between."""
        t = _angdist(_angle_of(v), self.axis_plus)
        # distance from the cone_plus axis at which cone_minus starts
        lo = self.half_plus
        hi = _angdist(self.axis_minus, self.axis_plus) - self.half_minus
        return _plateau_step(t, lo, hi)

    def phi_minus(self, v) -> np.ndarray:
        return 1.0 - self.phi_plus(v)


def _angle_of(v):
    return np.arctan2(v[:, 1], v[:, 0])


def _angdist(a, b):
    """Angular distance between directions modulo pi (cones are symmetric)."""
    d = np.mod(np.asarray(a) - b, math.pi)
    return np.minimum(d, math.pi - d)


def _sector_gap(ax_p, h_p, ax_m, h_m):
    return _angdist(ax_p, ax_m) - h_p - h_m


def _mollifier_f(t):
    """exp(-1/t) for t > 0, else 0; the standard C-infinity glue."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _plateau_step(t, lo, hi):
    """Smooth transition: 1 for t <= lo, 0 for t >= hi, on an array t."""
    if hi <= lo:
        raise ValueError("empty transition interval")
    # no clip: the two np.where overwrite every point outside [lo, hi]
    with np.errstate(over="ignore", invalid="ignore"):
        s = (t - lo) / (hi - lo)
        up = _mollifier_f(1.0 - s)
        down = _mollifier_f(s)
        val = up / (up + down)
    val = np.where(s <= 0.0, 1.0, val)
    return np.where(s >= 1.0, 0.0, val)


def smooth_bump(t):
    """C-infinity bump on (-1,1), equal to 1 at 0: exp(1 - 1/(1-t^2))."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _smooth_bump_deriv(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    one = 1.0 - ti * ti
    out[inside] = np.exp(1.0 - 1.0 / one) * (-2.0 * ti / one**2)
    return out


# ---------------------------------------------------------------------------
# builtin torus maps
# ---------------------------------------------------------------------------


def _unit_weight(x):
    return np.ones(x.shape[0])


UNIT_WEIGHT_HAT = (((0, 0),), (1.0,))


def builtin_cat_map() -> MapSystem:
    """Arnold cat map x -> Ax mod 1 with A = [[2,1],[1,1]], weight 1."""
    A = CAT_A
    Ainv = np.array([[1.0, -1.0], [-1.0, 2.0]])

    def forward(x):
        return np.mod(x @ A.T, 1.0)

    def inverse(x):
        return np.mod(x @ Ainv.T, 1.0)

    def jacobian(x):
        return np.broadcast_to(A, (x.shape[0], 2, 2)).copy()

    return MapSystem(
        name="cat",
        forward=forward,
        inverse=inverse,
        jacobian=jacobian,
        weight=_unit_weight,
        params={"eps": 0.0, "seed": 0},
        linear_part=CAT_A_INT.copy(),
        perturbation=(0.0, (0, 1), (1, 1)),
        weight_hat=UNIT_WEIGHT_HAT,
    )


def _perturbation_vectors(seed: int):
    """Integer frequency vectors of the two perturbation harmonics."""
    if seed == 0:
        return np.array([0, 1]), np.array([1, 1])
    rng = np.random.default_rng(seed)
    choices = [np.array(v) for v in ((0, 1), (1, 0), (1, 1), (1, -1))]
    k1 = choices[rng.integers(0, len(choices))]
    k2 = choices[rng.integers(0, len(choices))]
    return k1, k2


def min_jacobian_det(A, eps: float, a, b) -> float:
    """The least det DT over the torus of x -> A x + eps (sin 2 pi a.x,
    sin 2 pi b.x), exactly.

    With s = 2 pi eps and c1, c2 the cosines of 2 pi a.x and 2 pi b.x,
    det DT = det A + s c1 (a0 A11 - a1 A10) + s c2 (A00 b1 - A01 b0)
    + s^2 c1 c2 (a0 b1 - a1 b0) is bilinear in (c1, c2), so its least value
    lies at a corner c = +-1.  Independent a, b reach all four corners; for
    a = +-b, c2 = c1.
    """
    s = TWO_PI * eps
    p = s * (a[0] * A[1][1] - a[1] * A[1][0])
    q = s * (A[0][0] * b[1] - A[0][1] * b[0])
    r = s * s * (a[0] * b[1] - a[1] * b[0])
    corners = ((1, 1), (1, -1), (-1, 1), (-1, -1)) if r else ((1, 1), (-1, -1))
    det_a = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    return min(det_a + p * c1 + q * c2 + r * c1 * c2 for c1, c2 in corners)


def builtin_perturbed_cat(eps: float, seed: int = 0) -> MapSystem:
    """Analytic perturbation x -> Ax + eps*(sin 2pi k1.x, sin 2pi k2.x) mod 1.

    Default seed gives k1 = (0,1), k2 = (1,1); other seeds pick a different
    pair of unit harmonics.  The origin stays fixed for every seed.  An eps
    above PERTURBATION_BOUND, or one whose det DT falls below
    JACOBIAN_DET_MARGIN somewhere on the torus (seeds 2-5 near 0.05), is
    refused.
    """
    if abs(eps) > PERTURBATION_BOUND:
        raise PerturbationTooLarge(
            f"|eps| = {abs(eps)} exceeds documented bound {PERTURBATION_BOUND}"
        )
    A = CAT_A
    a, b = _perturbation_vectors(seed)
    low = min_jacobian_det(A, eps, a, b)
    if not low >= JACOBIAN_DET_MARGIN:  # a NaN eps too
        raise PerturbationTooLarge(
            f"eps = {eps} at seed {seed} brings det DT down to {low:.3g}, below "
            f"{JACOBIAN_DET_MARGIN}"
        )
    k1 = a.astype(float)
    k2 = b.astype(float)

    def forward(x):
        return np.mod(x @ A.T + eps * np.sin(TWO_PI * (x @ np.stack([k1, k2], axis=1))), 1.0)

    def jacobian(x):
        c1 = np.cos(TWO_PI * (x @ k1)) * eps * TWO_PI
        c2 = np.cos(TWO_PI * (x @ k2)) * eps * TWO_PI
        J = np.empty((x.shape[0], 2, 2))
        J[:, 0, 0] = A[0, 0] + c1 * k1[0]
        J[:, 0, 1] = A[0, 1] + c1 * k1[1]
        J[:, 1, 0] = A[1, 0] + c2 * k2[0]
        J[:, 1, 1] = A[1, 1] + c2 * k2[1]
        return J

    Ainv = np.linalg.inv(A)

    def inverse(y):
        x = np.mod(y @ Ainv.T, 1.0)
        for _ in range(60):
            r = forward(x) - y
            r -= np.round(r)  # shortest torus displacement
            if np.max(np.abs(r)) < 1e-14:
                break
            J = jacobian(x)
            x = np.mod(x - np.linalg.solve(J, r[..., None])[..., 0], 1.0)
        return x

    return MapSystem(
        name="perturbed_cat",
        forward=forward,
        inverse=inverse,
        jacobian=jacobian,
        weight=_unit_weight,
        params={"eps": float(eps), "seed": int(seed)},
        linear_part=CAT_A_INT.copy(),
        perturbation=(float(eps), tuple(a.tolist()), tuple(b.tolist())),
        weight_hat=UNIT_WEIGHT_HAT,
    )


# ---------------------------------------------------------------------------
# builtin chart model
# ---------------------------------------------------------------------------

CHART_SECTOR_HALF = math.radians(35.0)  # 45 degrees minus a 10 degree margin
CHART_WEIGHT_RADIUS = 0.25
CHART_BUMP_SCALE = 1.0


def chart_weight(x):
    """Compactly supported C-infinity weight bump, G(0) = 1."""
    return smooth_bump(np.hypot(x[:, 0], x[:, 1]) / CHART_WEIGHT_RADIUS)


def builtin_chart_model(eps: float):
    """Cone-hyperbolic model T(x,y) = (x/2 + eps p, 2y + eps q) on R^2.

    p and q are compactly supported smooth bumps.  Returns the MapSystem and
    the two polarizations (Theta, Theta'): sectors of half-angle 35 degrees
    about the unstable-conormal axis (xi_1) for C_+ and about the
    stable-conormal axis (xi_2) for C_-.
    """
    if not abs(eps) <= PERTURBATION_BOUND:  # a NaN eps too
        raise PerturbationTooLarge(
            f"|eps| = {abs(eps)} exceeds documented bound {PERTURBATION_BOUND}"
        )
    s = CHART_BUMP_SCALE

    def p_fun(x):
        return smooth_bump(x[:, 0] / s) * smooth_bump(x[:, 1] / s)

    def q_fun(x):
        # a second bump, offset so the two perturbations differ
        return smooth_bump(x[:, 0] / s) * smooth_bump((x[:, 1] - 0.2) / s)

    def forward(x):
        y = np.empty_like(x)
        y[:, 0] = 0.5 * x[:, 0] + eps * p_fun(x)
        y[:, 1] = 2.0 * x[:, 1] + eps * q_fun(x)
        return y

    def jacobian(x):
        bx = smooth_bump(x[:, 0] / s)
        by = smooth_bump(x[:, 1] / s)
        by2 = smooth_bump((x[:, 1] - 0.2) / s)
        dbx = _smooth_bump_deriv(x[:, 0] / s) / s
        dby = _smooth_bump_deriv(x[:, 1] / s) / s
        dby2 = _smooth_bump_deriv((x[:, 1] - 0.2) / s) / s
        J = np.empty((x.shape[0], 2, 2))
        J[:, 0, 0] = 0.5 + eps * dbx * by
        J[:, 0, 1] = eps * bx * dby
        J[:, 1, 0] = eps * dbx * by2
        J[:, 1, 1] = 2.0 + eps * bx * dby2
        return J

    def inverse(y):
        x = np.stack([2.0 * y[:, 0], 0.5 * y[:, 1]], axis=-1)
        for _ in range(60):
            r = forward(x) - y
            if np.max(np.abs(r)) < 1e-14:
                break
            J = jacobian(x)
            x = x - np.linalg.solve(J, r[..., None])[..., 0]
        return x

    sys = MapSystem(
        name="chart",
        forward=forward,
        inverse=inverse,
        jacobian=jacobian,
        weight=chart_weight,
        params={"eps": float(eps)},
        box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    theta = Polarization(0.0, CHART_SECTOR_HALF, math.pi / 2.0, CHART_SECTOR_HALF)
    theta_prime = Polarization(0.0, CHART_SECTOR_HALF, math.pi / 2.0, CHART_SECTOR_HALF)
    return sys, theta, theta_prime


def iterate_map(sys: MapSystem, m: int) -> MapSystem:
    """The m-th iterate as a MapSystem (weight iterated as g^(m))."""
    if m < 1:
        raise ValueError("m >= 1 required")

    def forward(x):
        y = x
        for _ in range(m):
            y = sys.forward(y)
        return y

    def inverse(x):
        y = x
        for _ in range(m):
            y = sys.inverse(y)
        return y

    def jacobian(x):
        return jacobian_cocycle(sys, x, m)

    def weight(x):
        return weight_product(sys, x, m)

    return MapSystem(
        name=f"{sys.name}^{m}",
        forward=forward,
        inverse=inverse,
        jacobian=jacobian,
        weight=weight,
        params={**sys.params, "iterate": m},
        box=sys.box,
    )


# ---------------------------------------------------------------------------
# cocycle and exponents
# ---------------------------------------------------------------------------


def jacobian_cocycle(sys: MapSystem, x, m: int):
    """DT^m at the (n, 2) points x by the chain rule, (n, 2, 2); m = 0 gives
    the identity."""
    if m < 0:
        raise ValueError("m >= 0 required")
    J = np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()
    y = x
    for _ in range(m):
        J = sys.jacobian(y) @ J
        y = sys.forward(y)
    return J


def weight_product(sys: MapSystem, x, m: int):
    """g^(m)(x) = prod_{k<m} g(T^k x) at the (n, 2) points x, (n,); m = 0
    gives 1."""
    w = np.ones(x.shape[0])
    y = x
    for _ in range(m):
        w = w * np.asarray(sys.weight(y))
        y = sys.forward(y)
    return w


def unstable_direction(sys: MapSystem, x):
    """Unstable line field at the (n, 2) points x, (n, 2) unit vectors: the
    direction of DT^n(T^{-n} x) v0 with n = SPLIT_REF_ITERATIONS and
    v0 = SPLIT_V0."""
    # push v0 forward along the stored backward orbit, renormalizing each
    # step; re-iterating forward instead would drift off the orbit at rate
    # lambda^n and evaluate the cocycle at wrong points
    orbit = [x]
    for _ in range(SPLIT_REF_ITERATIONS):
        orbit.append(sys.inverse(orbit[-1]))
    v = np.broadcast_to(SPLIT_V0, x.shape).copy()
    for k in range(SPLIT_REF_ITERATIONS, 0, -1):
        v = (sys.jacobian(orbit[k]) @ v[..., None])[..., 0]
        norms = np.linalg.norm(v, axis=-1)
        if np.any(norms < SPLIT_ANGLE_FLOOR):
            raise DegenerateDirection("unstable iterate collapsed")
        v = v / norms[:, None]
    growth = np.linalg.norm((sys.jacobian(x) @ v[..., None])[..., 0], axis=-1)
    if np.any(growth <= 1.0):
        raise DegenerateDirection("candidate unstable direction does not expand")
    return v


def stable_direction(sys: MapSystem, x):
    """Stable line field at the (n, 2) points x, (n, 2) unit vectors: the
    direction of [DT^n(x)]^{-1} v0 (expansion under T^{-1}) with
    n = SPLIT_REF_ITERATIONS and v0 = SPLIT_V0."""
    # pull v0 back through the derivative along the forward orbit of x
    orbit = [x]
    for _ in range(SPLIT_REF_ITERATIONS - 1):
        orbit.append(sys.forward(orbit[-1]))
    v = np.broadcast_to(SPLIT_V0, x.shape).copy()
    for k in range(SPLIT_REF_ITERATIONS - 1, -1, -1):
        v = np.linalg.solve(sys.jacobian(orbit[k]), v[..., None])[..., 0]
        norms = np.linalg.norm(v, axis=-1)
        if np.any(norms < SPLIT_ANGLE_FLOOR):
            raise DegenerateDirection("stable iterate collapsed")
        v = v / norms[:, None]
    shrink = np.linalg.norm((sys.jacobian(x) @ v[..., None])[..., 0], axis=-1)
    if np.any(shrink >= 1.0):
        raise DegenerateDirection("candidate stable direction does not contract")
    return v


def hyperbolicity_exponents(sys: MapSystem, x, m: int):
    """Local exponents lambda_x(T^m) and nu_x(T^m) for d_s = d_u = 1, the
    weight g^(m) and det DT^m, four (n,) arrays at the (n, 2) points x.

    One walk along the orbit evaluates DT once per point: lambda pulls the
    stable line at T^m x back through DT^m, exactly in d_s = 1; nu is the
    expansion of the unstable direction at x; g^(m) and det DT^m are the
    products of g and of det DT along the orbit (LU on DT^m, whose entries
    grow like lambda^m, would cancel).
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    jacs = []
    weights = np.ones(x.shape[0])
    jac_det = np.ones(x.shape[0])
    y = x
    for _ in range(m):
        J = sys.jacobian(y)
        jacs.append(J)
        weights = weights * np.asarray(sys.weight(y))
        jac_det *= J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        y = sys.forward(y)
    # v with DT^m v in E^s(T^m x): pull the stable line back step by step,
    # renormalizing; lambda = 1 / prod |DT^{-1}-step growth|
    v = stable_direction(sys, y)
    log_lam = np.zeros(x.shape[0])
    for k in range(m - 1, -1, -1):
        v = np.linalg.solve(jacs[k], v[..., None])[..., 0]
        norms = np.linalg.norm(v, axis=-1)
        log_lam -= np.log(norms)
        v = v / norms[:, None]
    lam = np.exp(log_lam)
    # nu: forward expansion of the unstable direction, renormalized stepwise
    u = unstable_direction(sys, x)
    log_nu = np.zeros(x.shape[0])
    for k in range(m):
        u = (jacs[k] @ u[..., None])[..., 0]
        norms = np.linalg.norm(u, axis=-1)
        log_nu += np.log(norms)
        u = u / norms[:, None]
    nu = np.exp(log_nu)
    return lam, nu, weights, jac_det


def weight_floor(g: Callable, n: int) -> Callable:
    """g_n(x) = sqrt(g(x)^2 + 1/n^2): positive floor, decreasing in n."""
    if n < 1:
        raise ValueError("n >= 1 required")

    def g_n(x):
        return np.sqrt(np.asarray(g(x)) ** 2 + 1.0 / n**2)

    return g_n


def make_map(map_id: str, eps: float = 0.0, seed: int = 0) -> MapSystem:
    """Builtin torus map registry used by the CLI."""
    if map_id == "cat":
        return builtin_cat_map() if eps == 0.0 else builtin_perturbed_cat(eps, seed)
    if map_id == "perturbed_cat":
        return builtin_perturbed_cat(eps, seed)
    raise ValueError(f"unknown torus map id {map_id!r}")
