"""Weight families with explicit comparison witnesses.

A weight family pairs the weights themselves with the data that makes the
three comparison conditions checkable: a radius function bounded by the
ring gap, an integrable majorizer, index maps, and the constants entering
each claimed inequality.  The shipped constructors cover polynomially and
exponentially growing weights on exhausted spaces and the boundary-distance
weights on a bounded open set, each with the constants produced by the
construction itself.

Constants are stored as functions ``A_j(n, k)`` of the weight index ``n``
and the ring index ``k``; families whose constants do not depend on the
ring simply ignore ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .domains import Box, ExhaustionDomain, exhaustion_gap, mesh_points
from .errors import ConstructionError, IndexCapError
from .report import FAIL, PASS, Certificate

__all__ = [
    "OMEGA1", "OMEGA2", "OMEGA3",
    "MuSpec", "WeightFamily",
    "schwartz_family", "boundary_family", "constant_weight_family",
    "make_exp_family", "product_family",
    "check_omega", "classify_s", "psi_mass_certificate",
]

OMEGA1 = "omega1"
OMEGA2 = "omega2"
OMEGA3 = "omega3"
ALL_OMEGA = frozenset({OMEGA1, OMEGA2, OMEGA3})

_PROBE_RANGE = range(1, 9)


@dataclass(frozen=True)
class MuSpec:
    """Exponent profile for families of the form ``exp(a_n * mu(x))``.

    variants:
      ``zero``             mu = 0
      ``uniform_delta``    any profile that moves by at most 1 over sup-norm
                           steps of size delta (callable supplied)
      ``power_abs``        mu(x) = |x|^m  (Euclidean norm)
      ``log_one_plus_sq``  mu(x) = log(1 + |x|^2)
      ``holder_block``     mu(x) = |x restricted to `block`|^gamma
    """

    variant: str
    delta: float | None = None
    power: int | None = None
    gamma: float | None = None
    block: tuple[int, ...] | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.variant not in ("zero", "uniform_delta", "power_abs",
                                "log_one_plus_sq", "holder_block"):
            raise ValueError(f"unknown mu variant {self.variant!r}")
        if self.variant == "uniform_delta" and not (self.delta and self.delta > 0):
            raise ValueError("uniform_delta requires delta > 0")
        if self.variant == "power_abs" and not (self.power and self.power >= 1):
            raise ValueError("power_abs requires an integer power >= 1")
        if self.variant == "holder_block":
            if not (self.gamma and 0 < self.gamma <= 1):
                raise ValueError("holder_block requires 0 < gamma <= 1")
            if not self.block:
                raise ValueError("holder_block requires a nonempty axis block")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.variant == "zero":
            return np.zeros(x.shape[:-1])
        if self.variant == "power_abs":
            return np.sqrt((x * x).sum(axis=-1)) ** self.power
        if self.variant == "log_one_plus_sq":
            return np.log1p((x * x).sum(axis=-1))
        if self.variant == "holder_block":
            sub = x[..., list(self.block)]
            return np.sqrt((sub * sub).sum(axis=-1)) ** self.gamma
        return np.asarray(self.fn(x), dtype=float)


@dataclass(frozen=True)
class WeightFamily:
    """Weights, radii, majorizers, and the witness data of their comparisons."""

    name: str
    domain: ExhaustionDomain
    nu: Callable[[int, np.ndarray], np.ndarray]
    radius: Callable[[int, np.ndarray], np.ndarray]
    index_maps: dict[int, Callable[[int], int]]
    constants: dict[int, Callable[[int, int], float]]
    claims: frozenset[str]
    s_condition: str = "none"
    psi: Callable[[int, np.ndarray], np.ndarray] | None = None
    psi_form: tuple | None = None
    radius_constant: Callable[[int], float | None] = field(
        default=lambda k: None, repr=False)
    radius_continuous: bool = True
    mu_spec: MuSpec | None = None
    case: str = ""

    def nu_at(self, n: int, x) -> np.ndarray:
        return np.asarray(self.nu(n, np.asarray(x, dtype=float)))

    def radius_at(self, k: int, x) -> np.ndarray:
        return np.asarray(self.radius(k, np.asarray(x, dtype=float)))

    def psi_at(self, n: int, x) -> np.ndarray:
        if self.psi is None:
            raise ValueError(f"family {self.name!r} carries no integrable majorizer")
        return np.asarray(self.psi(n, np.asarray(x, dtype=float)))

    def index(self, j: int, n: int) -> int:
        value = int(self.index_maps[j](n))
        if value < n:
            raise ConstructionError(
                f"index map I_{j} returned {value} < {n} for {self.name!r}")
        return value

    def constant(self, j: int, n: int, k: int | None = None) -> float:
        k = n if k is None else k
        try:
            return float(self.constants[j](n, k))
        except OverflowError:
            raise IndexCapError(
                f"constant A{j}({n}, {k}) of {self.name!r} overflows a float; "
                "the composed indices grow too fast") from None

    def claims_condition(self, which: str) -> bool:
        return which in self.claims


def _norm_sq(x: np.ndarray) -> np.ndarray:
    return (x * x).sum(axis=-1)


def _decay_sup(power: float, delta: float, exponent: float) -> float:
    """sup over t >= 0 of (1 + t^2)^power * exp(-delta * t^exponent)."""
    if delta <= 0:
        raise ConstructionError("decay rate must be positive (a_n strictly increasing)")

    def log_val(t):
        return power * np.log1p(t * t) - delta * np.power(t, exponent)

    grid = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 3201)])
    vals = log_val(grid)
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    best = vals[i]
    if hi > lo:
        res = minimize_scalar(lambda t: -log_val(t), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-13})
        best = max(best, -res.fun)
    return float(math.exp(best))


def _probe_gaps(domain: ExhaustionDomain) -> list[float]:
    return [exhaustion_gap(domain, n).value for n in _PROBE_RANGE]


def _gap_mode(domain: ExhaustionDomain, context: str) -> str:
    """'full' when every probed ring has empty outer boundary, 'gap' when
    every probed ring gap is finite and positive; anything else violates the
    construction hypothesis."""
    gaps = _probe_gaps(domain)
    if all(math.isinf(g) for g in gaps):
        return "full"
    if all(0.0 < g < math.inf for g in gaps):
        return "gap"
    raise ConstructionError(
        f"{context}: exhaustion must have empty outer boundaries or "
        f"uniformly positive finite ring gaps (probed gaps {gaps})")


def _normalize_a(a) -> Callable[[int], float]:
    if callable(a):
        return lambda n: float(a(n))
    seq = [float(v) for v in a]

    def from_seq(n: int) -> float:
        if n < 1 or n > len(seq):
            raise IndexCapError(
                f"growth sequence supplied only up to index {len(seq)}, needed {n}")
        return seq[n - 1]

    return from_seq


def _validate_a(a_fn: Callable[[int], float], probe: int = 12) -> int:
    """Return +1 for a nonnegative sequence, -1 for a nonpositive one."""
    vals = []
    for n in range(1, probe + 1):
        try:
            vals.append(a_fn(n))
        except IndexCapError:
            break
    if len(vals) < 2:
        raise ConstructionError("growth sequence must supply at least two terms")
    for u, v in zip(vals, vals[1:]):
        if not v > u:
            raise ConstructionError(
                f"growth sequence must be strictly increasing (a={u} then {v})")
    if all(v >= 0 for v in vals):
        return 1
    if all(v <= 0 for v in vals):
        return -1
    raise ConstructionError("growth sequence must not change sign (mixed-sign a_n)")


def _inverse_poly_psi(p: int):
    def psi(n, x):
        return (1.0 + _norm_sq(np.asarray(x, dtype=float))) ** (-float(p))
    return psi


def schwartz_family(domain: ExhaustionDomain) -> WeightFamily:
    """Polynomial weights ``(1 + |x|^2)^(n/2)`` on the whole space.

    The generated topology is that of rapidly decreasing smooth functions.
    """
    d = domain.dimension
    if _gap_mode(domain, "schwartz_family") != "full":
        raise ConstructionError(
            "schwartz_family: every ring must be the whole space")
    two_d = 2 * d
    one_plus_8d = 1.0 + 8.0 * d

    return WeightFamily(
        name=f"schwartz_d{d}",
        domain=domain,
        nu=lambda n, x: (1.0 + _norm_sq(x)) ** (0.5 * n),
        radius=lambda k, x: np.ones(np.asarray(x).shape[:-1]),
        psi=_inverse_poly_psi(d),
        psi_form=("inverse_poly", d),
        index_maps={1: lambda n: n, 2: lambda n: n + two_d, 3: lambda n: n + two_d},
        constants={1: lambda n, k: one_plus_8d ** (0.5 * n),
                   2: lambda n, k: 1.0,
                   3: lambda n, k: 1.0},
        claims=ALL_OMEGA,
        s_condition="s1",
        radius_constant=lambda k: 1.0,
        mu_spec=MuSpec("log_one_plus_sq"),
        case="exp_iv",
    )


def boundary_family(domain: ExhaustionDomain) -> WeightFamily:
    """Inverse boundary-distance powers on a bounded open set.

    Requires every ring to equal the domain itself.  The radius is half the
    boundary distance (capped at 1), which also serves as the majorizer.
    """
    omega = domain.omega
    if not omega.is_bounded:
        raise ConstructionError("boundary_family: the domain must be bounded")
    if not omega.has_boundary:
        raise ConstructionError("boundary_family: the domain must have a boundary")
    for n in _PROBE_RANGE:
        if domain.ring(n) is not omega:
            raise ConstructionError(
                "boundary_family: every ring must equal the domain")

    def dist(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        return omega.boundary_distance(flat).reshape(x.shape[:-1])

    def nu(n, x):
        dd = dist(x)
        return np.maximum(dd ** -1.0, dd ** -float(n))

    def radius(k, x):
        return np.minimum(dist(x) / 2.0, 1.0)

    return WeightFamily(
        name=f"boundary_d{domain.dimension}",
        domain=domain,
        nu=nu,
        radius=radius,
        psi=lambda n, x: radius(n, x),
        psi_form=("radius",),
        index_maps={1: lambda n: n, 2: lambda n: n + 1, 3: lambda n: n + 1},
        constants={1: lambda n, k: 3.0 ** n,
                   2: lambda n, k: 2.0,
                   3: lambda n, k: 2.0},
        claims=ALL_OMEGA,
        s_condition="s3",
        case="boundary",
    )


def constant_weight_family(domain: ExhaustionDomain,
                           radius_value: float | None = None) -> WeightFamily:
    """Unit weights on an exhaustion with bounded rings.

    The default radius is half the ring gap capped at 1; a custom constant
    radius must stay below every probed ring gap.
    """
    gaps = _probe_gaps(domain)
    if not all(0.0 < g < math.inf for g in gaps):
        raise ConstructionError(
            "constant_weight_family: rings must be bounded with positive gaps")

    def default_radius(k: int) -> float:
        return min(exhaustion_gap(domain, k).value, 1.0) / 2.0

    if radius_value is None:
        r_of_k = default_radius
    else:
        rv = float(radius_value)
        if not 0.0 < rv <= 1.0:
            raise ConstructionError("custom radius must lie in (0, 1]")
        for k in _PROBE_RANGE:
            if not rv < exhaustion_gap(domain, k).value:
                raise ConstructionError(
                    f"custom radius {rv} is not below the ring gap at k={k}")
        r_of_k = lambda k: rv

    ones = lambda n, x: np.ones(np.asarray(x).shape[:-1])

    return WeightFamily(
        name=f"constant_d{domain.dimension}",
        domain=domain,
        nu=ones,
        radius=lambda k, x: np.full(np.asarray(x).shape[:-1], r_of_k(k)),
        psi=ones,
        psi_form=("one",),
        index_maps={1: lambda n: n, 2: lambda n: n, 3: lambda n: n},
        constants={1: lambda n, k: 1.0,
                   2: lambda n, k: 1.0,
                   3: lambda n, k: 1.0 / r_of_k(k)},
        claims=ALL_OMEGA,
        s_condition="s1",
        radius_constant=lambda k: r_of_k(k),
        mu_spec=MuSpec("zero"),
        case="exp_v",
    )


def make_exp_family(mu: MuSpec, a, domain: ExhaustionDomain,
                    constant_radius: bool = False,
                    search_cap: int = 10_000) -> WeightFamily:
    """Family ``exp(a_n * mu(x))`` with witnesses chosen by the mu variant.

    ``a`` is a strictly increasing sequence (callable or list), either all
    nonnegative or all nonpositive.  For ``power_abs`` profiles,
    ``constant_radius=True`` selects the constant-radius construction, whose
    growth index is found by linear search capped at ``search_cap``.
    """
    d = domain.dimension

    if mu.variant == "zero":
        return constant_weight_family(domain)

    a_fn = _normalize_a(a)
    sign = _validate_a(a_fn)

    if mu.variant == "log_one_plus_sq":
        for n in range(1, 9):
            if abs(a_fn(n) - 0.5 * n) > 1e-12:
                raise ConstructionError(
                    "log_one_plus_sq profile requires the growth sequence n/2")
        return schwartz_family(domain)

    mode = _gap_mode(domain, "make_exp_family")

    def gap(k: int) -> float:
        return exhaustion_gap(domain, k).value

    def nu(n, x):
        return np.exp(a_fn(n) * mu(np.asarray(x, dtype=float)))

    def delta_n(n: int) -> float:
        return a_fn(n + 1) - a_fn(n)

    if mu.variant in ("uniform_delta", "holder_block"):
        if mu.variant == "uniform_delta":
            delta = mu.delta
        else:
            # A gamma-Hoelder block profile moves by at most (sqrt(d0) s)^gamma
            # over sup-norm steps of size s, so s = d0^(-1/2) keeps it below 1.
            delta = len(mu.block) ** -0.5

        if mode == "full":
            r_const = lambda k: min(delta, 1.0)
        else:
            r_const = lambda k: min(delta, gap(k)) / 2.0

        claims = {OMEGA1, OMEGA3}
        psi = None
        psi_form = None
        index_maps = {1: lambda n: n, 3: lambda n: n}
        constants = {1: lambda n, k: math.exp(2.0 * abs(a_fn(n))),
                     3: lambda n, k: 1.0 / r_const(k)}
        case = "exp_i"

        if mu.variant == "holder_block":
            # Lower bound |x|^gamma <= mu(x) + c_k on ring k, where the
            # complementary axes are bounded by the ring extents.
            bounded_axes = [i for i in range(d) if i not in mu.block]
            if bounded_axes:
                extents = _ring_axis_extents(domain, bounded_axes)
            else:
                extents = lambda k: 0.0

            def c_k(k: int) -> float:
                return (len(bounded_axes) * extents(k)) ** mu.gamma

            c0_cache: dict[int, float] = {}

            def a2(n: int, k: int) -> float:
                if n not in c0_cache:
                    c0_cache[n] = _decay_sup(d, delta_n(n), mu.gamma)
                return c0_cache[n] * math.exp(delta_n(n) * c_k(k))

            claims = set(ALL_OMEGA)
            psi = _inverse_poly_psi(d)
            psi_form = ("inverse_poly", d)
            index_maps = dict(index_maps)
            index_maps[2] = lambda n: n + 1
            constants = dict(constants)
            constants[2] = a2
            case = "exp_ii"

        return WeightFamily(
            name=f"exp_{mu.variant}_d{d}",
            domain=domain,
            nu=nu,
            radius=lambda k, x: np.full(np.asarray(x).shape[:-1], r_const(k)),
            psi=psi,
            psi_form=psi_form,
            index_maps=index_maps,
            constants=constants,
            claims=frozenset(claims),
            s_condition="s1",
            radius_constant=lambda k: r_const(k),
            mu_spec=mu,
            case=case,
        )

    if mu.variant == "power_abs":
        if constant_radius:
            return _power_family_constant_radius(
                mu, a_fn, sign, domain, mode, gap, nu, delta_n, search_cap)
        return _power_family_decaying_radius(
            mu, a_fn, domain, mode, gap, nu, delta_n)

    raise ConstructionError(f"no construction for mu variant {mu.variant!r}")


def _ring_axis_extents(domain: ExhaustionDomain, axes: list[int]):
    """Per-ring bound on |x_i| over the given axes (box rings only)."""
    from .domains import BoxRegion

    def extent(k: int) -> float:
        region = domain.ring(k)
        if not isinstance(region, BoxRegion):
            raise ConstructionError(
                "holder_block requires box rings to bound the complementary axes")
        vals = []
        for i in axes:
            lo, hi = region.box.lower[i], region.box.upper[i]
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConstructionError(
                    f"holder_block: ring {k} is unbounded on constrained axis {i}")
            vals.append(max(abs(lo), abs(hi)))
        return max(vals)

    return extent


def _power_family_decaying_radius(mu, a_fn, domain, mode, gap, nu, delta_n):
    """|x|^m exponent with radius (1 + |x|^2)^(-p)."""
    d = domain.dimension
    m = mu.power
    p = max(math.ceil((d + 1) / 2), math.ceil((m - 1) / 2), 1)

    # Sup-norm steps of size r(x) move mu by at most this constant.
    move = sum(math.comb(m, j) * (2.0 ** j) * (d ** (j / 2.0))
               * (1.0 + math.sqrt(d)) ** (m - j)
               for j in range(1, m + 1))

    def base_radius(x):
        return (1.0 + _norm_sq(np.asarray(x, dtype=float))) ** (-float(p))

    if mode == "full":
        radius = lambda k, x: base_radius(x)

        def a3(n: int, k: int) -> float:
            return _decay_sup(p, delta_n(n), float(m))
    else:
        radius = lambda k, x: np.minimum(base_radius(x), gap(k)) / 2.0

        def a3(n: int, k: int) -> float:
            return 2.0 / gap(k) + 2.0 * _decay_sup(p, delta_n(n), float(m))

    return WeightFamily(
        name=f"exp_power{m}_d{d}",
        domain=domain,
        nu=nu,
        radius=radius,
        psi=_inverse_poly_psi(p),
        psi_form=("inverse_poly", p),
        index_maps={1: lambda n: n, 2: lambda n: n + 1, 3: lambda n: n + 1},
        constants={1: lambda n, k: math.exp(abs(a_fn(n)) * move),
                   2: a3,
                   3: a3},
        claims=ALL_OMEGA,
        s_condition=classify_s_for(domain, radius_constant=False),
        mu_spec=mu,
        case="exp_iii1",
    )


def _power_family_constant_radius(mu, a_fn, sign, domain, mode, gap, nu,
                                  delta_n, search_cap):
    """|x|^m exponent with constant radius; needs room to grow in the sequence."""
    d = domain.dimension
    m = mu.power
    factor = (1.0 + 2.0 * d) ** m
    _growth_cache: dict[int, int] = {}

    def growth_index(n: int) -> int:
        if n in _growth_cache:
            return _growth_cache[n]
        target = a_fn(n) * factor if sign > 0 else a_fn(n) / factor
        j = n
        while j <= search_cap:
            if a_fn(j) >= target:
                _growth_cache[n] = j
                return j
            j += 1
        raise IndexCapError(
            f"no index j <= {search_cap} with a_j >= {target} (from n={n}); "
            "the constant-radius construction needs the sequence to reach it")

    if mode == "full":
        r_const = lambda k: 1.0
    else:
        r_const = lambda k: min(1.0, gap(k)) / 2.0

    p = max(math.ceil((d + 1) / 2), 1)

    def a1(n: int, k: int) -> float:
        if sign > 0:
            return math.exp(a_fn(growth_index(n)))
        return math.exp(abs(a_fn(n)))

    return WeightFamily(
        name=f"exp_power{m}_const_d{d}",
        domain=domain,
        nu=nu,
        radius=lambda k, x: np.full(np.asarray(x).shape[:-1], r_const(k)),
        psi=_inverse_poly_psi(p),
        psi_form=("inverse_poly", p),
        index_maps={1: growth_index, 2: lambda n: n + 1, 3: lambda n: n},
        constants={1: a1,
                   2: lambda n, k: _decay_sup(p, delta_n(n), float(m)),
                   3: lambda n, k: 1.0 / r_const(k)},
        claims=ALL_OMEGA,
        s_condition="s1",
        radius_constant=lambda k: r_const(k),
        mu_spec=mu,
        case="exp_iii2",
    )


def product_family(left: WeightFamily, right: WeightFamily) -> WeightFamily:
    """Pointwise product of two families, witnesses composed accordingly.

    The left factor must claim all three comparison conditions; the right
    factor must claim the first and third.
    """
    if left.domain.dimension != right.domain.dimension or \
            left.domain.name != right.domain.name:
        raise ConstructionError("product_family: factors live on different domains")
    if not ALL_OMEGA <= left.claims:
        raise ConstructionError(
            "product_family: left factor must claim all three conditions")
    if not {OMEGA1, OMEGA3} <= right.claims:
        raise ConstructionError(
            "product_family: right factor must claim the first and third conditions")

    def radius(k, x):
        return np.minimum(left.radius(k, x), right.radius(k, x))

    def radius_constant(k):
        lc, rc = left.radius_constant(k), right.radius_constant(k)
        if lc is None or rc is None:
            return None
        return min(lc, rc)

    maps = {
        1: lambda n: max(left.index(1, n), right.index(1, n)),
        2: lambda n: left.index(2, n),
        3: lambda n: max(left.index(3, n), right.index(3, n)),
    }
    consts = {
        1: lambda n, k: left.constant(1, n, k) * right.constant(1, n, k),
        2: lambda n, k: left.constant(2, n, k),
        3: lambda n, k: left.constant(3, n, k) * right.constant(3, n, k),
    }

    if radius_constant(1) is not None:
        s_tag = "s1"
    else:
        s_tag = classify_s_for(left.domain,
                               radius_constant=False,
                               radius_continuous=left.radius_continuous
                               and right.radius_continuous)

    return WeightFamily(
        name=f"product[{left.name},{right.name}]",
        domain=left.domain,
        nu=lambda n, x: left.nu(n, x) * right.nu(n, x),
        radius=radius,
        psi=left.psi,
        psi_form=left.psi_form,
        index_maps=maps,
        constants=consts,
        claims=ALL_OMEGA,
        s_condition=s_tag,
        radius_constant=radius_constant,
        radius_continuous=left.radius_continuous and right.radius_continuous,
        case=f"product({left.case},{right.case})",
    )


def classify_s_for(domain: ExhaustionDomain, radius_constant: bool,
                   radius_continuous: bool = True) -> str:
    if radius_constant:
        return "s1"
    if all(domain.ring(n).is_closed for n in _PROBE_RANGE):
        return "s2"
    if all(domain.ring(n) is domain.omega for n in _PROBE_RANGE) and radius_continuous:
        return "s3"
    return "none"


def classify_s(family: WeightFamily, domain: ExhaustionDomain | None = None) -> str:
    """Structural tag guaranteeing positivity of the iterated radii.

    ``s1`` needs an exact positive lower bound on each radius (constant
    radii qualify); a sampled minimum is not accepted as a witness.
    """
    domain = domain or family.domain
    has_constant = all(
        (family.radius_constant(k) or 0.0) > 0.0 for k in _PROBE_RANGE)
    return classify_s_for(domain, has_constant, family.radius_continuous)


def _offset_cube(dimension: int, count: int) -> np.ndarray:
    if count < 2 or count % 2 == 0:
        raise ValueError("offset count must be odd and >= 3 to include 0 and corners")
    axis = np.linspace(-1.0, 1.0, count)
    return mesh_points([axis] * dimension)


def check_omega(family: WeightFamily, which: str, n: int, k: int,
                grid: np.ndarray, offset_count: int = 5,
                tol: float = 1e-9,
                claimed_bound: float | None = None) -> Certificate:
    """Spot-check one comparison condition on a sample grid in ring k.

    Records the worst measured ratio of the two sides with the claimed
    constant divided out; the verdict compares it against the claimed
    constant with relative slack ``tol``.  For the first condition both the
    supremum and the infimum are sampled on a per-point offset cube, so the
    measured ratio is a lower bound of the true one.

    ``claimed_bound`` overrides the family's own constant (negative controls).
    """
    if which not in ALL_OMEGA:
        raise ValueError(f"unknown condition {which!r}")
    grid = family.domain.require_in_ring(k, grid)
    if len(grid) == 0:
        raise ValueError("empty sample grid")
    if not family.claims_condition(which):
        return Certificate(
            name=f"{which}[{family.name},n={n},k={k}]",
            claim=f"weights.{which}",
            verdict="not-certified",
            details={"note": f"family does not claim {which}"},
        )

    d = family.domain.dimension
    resolutions: dict = {"points": int(len(grid))}

    if which == OMEGA1:
        j = 1
        offsets = _offset_cube(d, offset_count)
        r = family.radius_at(k, grid)
        shifted = grid[:, None, :] + r[:, None, None] * offsets[None, :, :]
        sup_side = family.nu_at(n, shifted).max(axis=1)
        inf_side = family.nu_at(family.index(1, n), shifted).min(axis=1)
        ratios = sup_side / inf_side
        resolutions["offsets_per_point"] = int(len(offsets))
        resolutions["sample_pairs"] = int(len(grid) * len(offsets))
    elif which == OMEGA2:
        j = 2
        denom = family.psi_at(n, grid) * family.nu_at(family.index(2, n), grid)
        ratios = family.nu_at(n, grid) / denom
    else:
        j = 3
        denom = family.radius_at(k, grid) * family.nu_at(family.index(3, n), grid)
        ratios = family.nu_at(n, grid) / denom

    worst_idx = int(np.argmax(ratios))
    worst = float(ratios[worst_idx])
    bound = float(claimed_bound if claimed_bound is not None
                  else family.constant(j, n, k))
    passed = worst <= bound * (1.0 + tol)
    details = {"target_index": family.index(j, n)}
    if not passed:
        details["witness_point"] = grid[worst_idx].tolist()
    return Certificate(
        name=f"{which}[{family.name},n={n},k={k}]",
        claim=f"weights.{which}",
        verdict=PASS if passed else FAIL,
        measured=worst,
        bound=bound,
        slack=bound - worst,
        constants={"A": bound, "tolerance": tol},
        resolutions=resolutions,
        details=details,
    )


def psi_mass_certificate(family: WeightFamily, n: int, box: Box,
                         resolution: float, rel_tol: float = 0.01,
                         analytic_tol: float = 0.02) -> Certificate:
    """Riemann-sum convergence check for the integrable majorizer.

    Midpoint sums at two successive resolutions must agree to ``rel_tol``.
    In one dimension, inverse-polynomial majorizers are also compared with
    their closed-form integral over the whole line.
    """
    if family.psi is None:
        raise ValueError(f"family {family.name!r} carries no integrable majorizer")

    def midpoint_sum(res: float) -> float:
        # cells tile the box exactly: per-axis count rounded to the target
        # resolution, cell width adjusted accordingly
        axes = []
        volume = 1.0
        for lo, hi in zip(box.lower, box.upper):
            count = max(1, int(round((hi - lo) / res)))
            axes.append(lo + (hi - lo) * (np.arange(count) + 0.5) / count)
            volume *= (hi - lo) / count
        pts = mesh_points(axes)
        inside = family.domain.omega.contains(pts)
        vals = np.where(inside, family.psi_at(n, pts), 0.0)
        return float(vals.sum() * volume)

    coarse = midpoint_sum(resolution)
    fine = midpoint_sum(resolution / 2.0)
    rel = abs(fine - coarse) / max(abs(fine), 1e-300)
    passed = rel <= rel_tol
    details: dict = {"coarse": coarse, "fine": fine, "relative_change": rel}

    if family.psi_form and family.psi_form[0] == "inverse_poly" \
            and family.domain.dimension == 1:
        p = family.psi_form[1]
        exact = math.pi * math.comb(2 * p - 2, p - 1) / 4.0 ** (p - 1)
        details["analytic_line_integral"] = exact
        analytic_rel = abs(fine - exact) / exact
        details["analytic_relative_error"] = analytic_rel
        passed = passed and analytic_rel <= analytic_tol

    return Certificate(
        name=f"psi_mass[{family.name},n={n}]",
        claim="weights.psi_integrable",
        verdict=PASS if passed else FAIL,
        measured=fine,
        resolutions={"resolution": resolution, "refined": resolution / 2.0},
        details=details,
    )
