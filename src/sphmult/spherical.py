"""Spherical function evaluation and multiplier norms on the Lorentz groups.

The radial spherical function is evaluated through the stable
hypergeometric form

    phi_s(a_r) = cosh(r)^(s - m/2) * F(m/4 - s/2, m0/4 - s/2; (m+m0)/4; tanh(r)^2)

after flipping s so Re(s) >= 0 (phi_s is even in s) and r to |r| (it is
even in r).  The pair (tanh^2 r, sech^2 r) is passed to the
hypergeometric core together, so the argument can sit arbitrarily close
to 1 without cancellation; far beyond the asymptotic handoff radius the
Harish-Chandra form c(s) e^((s - m/2) r) takes over.

The completely bounded multiplier norm on SO0(1,n) is the Gamma
expression

    G(m/2+sig) G(m/2-sig) |G(m/2+it)|^2
    -----------------------------------   (s = sig + i t, |sig| < m/2),
    G(m/2)^2 |G(m/2+s) G(m/2-s)|

equal to 1 at s = +-m/2 and undefined elsewhere; ``multiplier_l1_norm``
recomputes it as the L^1 norm of the squared-Bessel kernel and is the
quadrature cross-check.  It, c(s) and every other Gamma factor here are
one ``specfun.gamma_ratio`` call each, which holds to |Im s| = 1e4.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, NotAMultiplierError
from .groups import RankOneGroup, StripPosition, as_spectral, classify
from .quadrature import DEFAULT_SPEC, QuadratureSpec, _numpy, composite
from .specfun import (
    SPECIAL_RTOL,
    _hyp2f1_zw,
    _kernel_integral,
    bessel_k,
    gamma,
    gamma_ratio,
    rgamma,
)

np = _numpy(__name__)


class EvalMethod(Enum):
    HYPERGEOMETRIC_STABLE = "hypergeometric_stable"
    INTEGRAL_QUADRATURE = "integral_quadrature"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class SphericalValue:
    value: complex
    method: EvalMethod

    def __complex__(self):
        return complex(self.value)


def _log_cosh(r: float) -> float:
    r = abs(r)
    return r + math.log1p(math.exp(-2.0 * r)) - math.log(2.0)


def _cosh_pow(r: float, exponent: complex) -> complex:
    return cmath.exp(exponent * _log_cosh(r))


def _switch_radius(sigma: float) -> float:
    return max(8.0, 20.0 / sigma)


def phi(group: RankOneGroup, s, r: float) -> SphericalValue:
    """Spherical function phi_s(a_r) on the given rank-one group.

    Any real r and complex s are accepted; evaluation symmetrizes both.
    Beyond the handoff radius max(8, 20/Re s) (Re s > 0) the leading
    term c(s) e^((s - m/2) r) is used; at s = 2.5, r = 8.01 its relative
    error against mpmath is 2.5e-6 on F4(-20), 3.7e-7 on Sp(1,2) and
    7.4e-8 on SU(1,3) (ROADMAP item 3).  Otherwise the stable
    hypergeometric form is used; where it fails, SO0 falls back to
    ``phi_lorentz_integral``, a trapezoid sum (within 2.2e-8 of mpmath for
    |Im s| up to 1000 at r <= 5, and within its node budget at |Im s| =
    1e4, r = 1), for r <= 100, and everything else raises
    ConvergenceError.  The stable form fails at integer c - a - b near
    the unit argument, and at large |Im s|, where a series cancels below
    the 1e-12 tolerance (from |Im s| of about 12 on SO0(1,3) at r = 1, 160
    on SU(1,2) at r = 1.4); near integer s it loses digits (ROADMAP item 9).
    Re s = 0 beyond r of about 373 is unsupported for now: sech^2 r
    underflows there, and the two-term Harish-Chandra form that would
    cover it is ROADMAP item 3.  A value beyond the float range raises
    ConvergenceError too, and a non-finite s or r DomainError.
    """
    m, m0 = group.m, group.m0
    sc = complex(as_spectral(s).value)
    if sc.real < 0:
        sc = -sc
    rr = abs(float(r))
    if not math.isfinite(rr):
        raise DomainError(f"phi requires a finite r, got {r}")
    if rr == 0.0:
        return SphericalValue(1.0 + 0.0j, EvalMethod.HYPERGEOMETRIC_STABLE)
    try:
        value, method = _phi_route(m, m0, sc, rr)
    except OverflowError:
        value, method = complex(math.inf), None
    return SphericalValue(_in_float_range(value, sc, rr), method)


def _in_float_range(value: complex, sc: complex, r: float) -> complex:
    """value, or ConvergenceError when it is not finite."""
    if not cmath.isfinite(value):
        raise ConvergenceError(f"phi_s(a_r) at s={sc}, r={r} is beyond the float range")
    return value


def _phi_route(m: int, m0: int, sc: complex, rr: float) -> tuple[complex, EvalMethod]:
    """phi at Re(sc) >= 0, rr > 0, and the route that gave it."""
    if sc.real > 0 and rr > _switch_radius(sc.real):
        return _phi_asymptotic(m, m0, sc, rr), EvalMethod.ASYMPTOTIC
    a = m / 4.0 - sc / 2.0
    b = m0 / 4.0 - sc / 2.0
    c = (m + m0) / 4.0
    th = math.tanh(rr)
    z = th * th
    w = math.exp(-2.0 * _log_cosh(rr))
    try:
        f = _hyp2f1_zw(a, b, c, z, w, SPECIAL_RTOL)
    except ConvergenceError:
        if m0 != m + 2 or rr > 100.0:
            raise
        return phi_lorentz_integral(m, sc, rr, DEFAULT_SPEC), EvalMethod.INTEGRAL_QUADRATURE
    return _cosh_pow(rr, sc - m / 2.0) * f, EvalMethod.HYPERGEOMETRIC_STABLE


def phi_lorentz_integral(m: int, s, r: float,
                         spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Quadrature form of phi_s(a_r) on SO0(1, m+1).

    Evaluates G((m+1)/2) / (sqrt(pi) G(m/2)) *
    int_0^pi sin(th)^(m-1) (cosh r + sinh r cos th)^(-(s + m/2)) dth,
    which is even in both r and s, after flipping s so Re(s) >= 0 and r
    to |r|.  The boundary layer at th = pi has width ~e^(-r), so the
    integral is taken in v = log tan(th/2), where the layer sits at v = r:

        2^m int e^(mv) (1 + e^(2v))^(s - m/2) (e^r + e^(2v - r))^(-(s + m/2)) dv,

    with the integrand formed from logaddexp and scaled by e^(-(s - m/2) r)
    so that it is O(1) near v = r.  Its tails decay like e^(-m|v|) outside
    [0, r], so the domain is cut to [-D/m, r + D/m] with D = -log(absolute
    tolerance) + 5.  The integrand is analytic in |Im v| < pi/2, so the
    trapezoidal rule converges geometrically.  It is evaluated once on the
    nodes a + k h, k = 0 .. n (n even), with h = 2^-p: 1/8 up to |Im s| of
    about 13, and below pi / (|Im s| + 12) beyond.  The rule at step 2h is
    the sum over the even nodes; with d the distance between the two and M
    the sum of |integrand| times h, step h is about d^2 / M off, and is
    accepted when d^2 <= relative_tolerance |T_h| M and the rounding floor,
    8 ulps of M, is at most relative_tolerance |T_h|.  Otherwise the step
    is halved, evaluating only the new odd nodes.  A grid of more than
    15 max_panels nodes is not evaluated: ConvergenceError, with the last
    estimate and d in the units of the value (none before the first grid:
    from r of about 37,500 at the default spec).  At the default
    tolerances it agrees with mpmath to 1.6e-12 relative for m in
    {1..6, 8, 12, 16}, r in {5, 10, 15, 18.75, 20, 22, 24, 25} and s in
    {0, 1e-9, 0.3, 1, 2, 0.45+0.2i, 1.5i, 0.7-2i}, and to 1.5e-12 at
    r = 30, 40, 60 and 100 while the value is in the float range; every
    one of these points takes the first grid.  At sigma = 0.3 and |Im s|
    from 12 to 1000 (m <= 4, r from 0.3 to 5) it is within 2.2e-8, and
    the phase's rounding, not the step, sets that error.
    """
    if m < 1:
        raise DomainError("m must be at least 1")
    sc = complex(as_spectral(s).value)
    if sc.real < 0:
        sc = -sc
    rr = abs(float(r))
    if not math.isfinite(rr):
        raise DomainError(f"phi_lorentz_integral requires a finite r, got {r}")
    lo_expo, hi_expo = sc - m / 2.0, -(sc + m / 2.0)

    def integrand(vs):
        log_g = (m * vs + lo_expo * (np.logaddexp(0.0, 2.0 * vs) - rr)
                 + hi_expo * np.logaddexp(rr, 2.0 * vs - rr))
        return np.exp(log_g)

    depth = spec.truncation_depth / m
    const = gamma_ratio(((m + 1) / 2.0,), (m / 2.0,)).real / math.sqrt(math.pi)
    scale = const * 2.0 ** m * cmath.exp(lo_expo * rr)
    budget = 15 * spec.max_panels
    # h = 1/8 up to |Im s| = 8 pi - 12, where the first grid is accepted at
    # every point of the sweep above; beyond, h < pi / (|Im s| + 12): the
    # phase turns through at most 2 |Im s| per unit of v, so that the
    # trapezoid error e^(-2 pi a / h + 2 |Im s| a), a < pi/2, stays small
    a, h = -depth, 2.0 ** -math.ceil(math.log2(max(8.0, (abs(sc.imag) + 12.0) / math.pi)))
    n = 2 * math.ceil((rr + 2.0 * depth) / (2.0 * h))
    if n + 1 > budget:
        raise ConvergenceError(f"phi_lorentz_integral needs at least {n + 1} nodes, more than "
                               f"15 max_panels = {budget}")
    values = integrand(a + h * np.arange(n + 1.0))
    total, mass = h * values.sum(), h * np.abs(values).sum()
    coarse = 2.0 * h * values[::2].sum()
    while True:
        err, tol = abs(total - coarse), spec.relative_tolerance * abs(total)
        # step h is about err^2 / mass off, unless at the rounding floor,
        # 8 ulps of the mass
        if err * err <= tol * mass and 8.0 * sys.float_info.epsilon * mass <= tol:
            return complex(scale * total)
        h, n = 0.5 * h, 2 * n
        if n + 1 > budget:
            raise ConvergenceError("phi_lorentz_integral node budget exhausted",
                                   best_estimate=complex(scale * total),
                                   achieved_error=abs(scale) * err)
        values = integrand(a + h * np.arange(1.0, n, 2.0))
        coarse = total
        total = 0.5 * total + h * values.sum()
        mass = 0.5 * mass + h * np.abs(values).sum()


def phi_lorentz_hyp2(m: int, s, r: float) -> complex:
    """Second closed form of phi_s(a_r) on SO0(1, m+1), for r >= 0.

    e^(-(m/2+s) r) * F(m/2+s, m/2; m; 1 - e^(-2r)); the hypergeometric
    argument is passed together with its exact complement e^(-2r).  A
    value beyond the float range raises ConvergenceError, as in ``phi``.
    """
    if r < 0:
        raise DomainError("phi_lorentz_hyp2 requires r >= 0; symmetrize first")
    sc = complex(as_spectral(s).value)
    w = math.exp(-2.0 * r)
    z = -math.expm1(-2.0 * r)
    try:
        value = (cmath.exp(-(m / 2.0 + sc) * r)
                 * _hyp2f1_zw(m / 2.0 + sc, m / 2.0, float(m), z, w, SPECIAL_RTOL))
    except OverflowError:
        value = complex(math.inf)
    return _in_float_range(value, sc, r)


def _c_function(m: int, m0: int, sc: complex) -> complex:
    """c(s) = 2^(m/2 - s) G((m+m0)/4) G(s) / (G(m/4 + s/2) G(m0/4 + s/2)) for
    Re s > 0, with G(s) split by the duplication formula,
    2^(s-1) G(s/2) G(s/2 + 1/2) / sqrt(pi), so that each Gamma of s meets a
    denominator at the common imaginary part t/2."""
    half = sc / 2.0
    return (2.0 ** (m / 2.0 - 1.0) / math.sqrt(math.pi)
            * gamma_ratio(((m + m0) / 4.0, half, half + 0.5),
                          (m / 4.0 + half, m0 / 4.0 + half)))


def c_function(group: RankOneGroup, s) -> complex:
    """Harish-Chandra c(s) for Re(s) > 0: the coefficient of e^((s-m/2)r)
    in the large-r behaviour of phi_s(a_r)."""
    sc = complex(as_spectral(s).value)
    if sc.real <= 0:
        raise DomainError("c_function requires Re(s) > 0")
    return _c_function(group.m, group.m0, sc)


def _phi_asymptotic(m: int, m0: int, sc: complex, r: float) -> complex:
    return _c_function(m, m0, sc) * cmath.exp((sc - m / 2.0) * r)


def phi_asymptotic(group: RankOneGroup, s, r: float) -> complex:
    """Leading large-r form c(s) e^((s - m/2) r), for Re(s) > 0; a value
    beyond the float range raises ConvergenceError, as in ``phi``."""
    sc = complex(as_spectral(s).value)
    if sc.real <= 0:
        raise DomainError("phi_asymptotic requires Re(s) > 0")
    r = float(r)
    try:
        value = _phi_asymptotic(group.m, group.m0, sc, r)
    except OverflowError:
        value = complex(math.inf)
    return _in_float_range(value, sc, r)


def _open_strip(m: int, s, what: str) -> complex:
    """s as a complex number; DomainError unless it is in the open strip."""
    sp = as_spectral(s)
    if classify(sp, m) is not StripPosition.INTERIOR:
        raise DomainError(f"{what} requires s in the open strip")
    return sp.value


def strip_norm(m: int, s) -> tuple[StripPosition, float | None]:
    """Strip position of s and the cb multiplier norm of phi_s on
    SO0(1, m+1) there: the Gamma expression in the open strip, 1 at
    s = +-m/2, None elsewhere (phi_s is not a multiplier)."""
    sp = as_spectral(s)
    position = classify(sp, m)
    if position is StripPosition.BOUNDARY_CONSTANT:
        return position, 1.0
    if position is not StripPosition.INTERIOR:
        return position, None
    # |G(m/2 - s)| = |G(m/2 - conj s)|: both pair with G(m/2 + it); at t = 0
    # the two lists are equal, so the norm is exactly 1
    sc = sp.value
    half, axis = m / 2.0, complex(m / 2.0, sc.imag)
    return position, abs(gamma_ratio((half + sc.real, half - sc.real, axis, axis),
                                     (half + sc, half - sc.conjugate(), half, half)))


def cb_norm_lorentz(m: int, s) -> float:
    """Completely bounded Fourier multiplier norm of phi_s on SO0(1, m+1).

    Defined for s in the open strip (the Gamma expression, real and
    >= 1) and at s = +-m/2 (exactly 1, stated separately because the
    naive formula hits a Gamma pole there).  Raises NotAMultiplierError
    on the rest of the boundary and outside the closed strip.
    """
    norm = strip_norm(m, s)[1]
    if norm is None:
        raise NotAMultiplierError(
            f"phi_s is not a completely bounded multiplier at s={as_spectral(s).value} (m={m})"
        )
    return norm


_SPHERE_CONST_CACHE: dict[int, float] = {}


def _c_m(m: int) -> float:
    """Normalization sqrt(G(m) / (pi^(m/2) G(m/2))) of the kernel vectors, by
    the duplication formula sqrt(2^(m-1) G((m+1)/2) / pi^((m+1)/2))."""
    if m not in _SPHERE_CONST_CACHE:
        _SPHERE_CONST_CACHE[m] = math.sqrt(
            2.0 ** (m - 1.0) * gamma((m + 1) / 2.0).real / math.pi ** ((m + 1) / 2.0))
    return _SPHERE_CONST_CACHE[m]


def bessel_vector(m: int, s, x_norm: float) -> complex:
    """Radial profile of the L^2(R^m) vector whose matrix coefficients
    realize phi_s on the solvable part:

        c_m * 2^(1-m/2) / G(m/2 + s) * K_s(x_norm),  x_norm > 0,

    with c_m = sqrt(G(m)/(pi^(m/2) G(m/2))).  Requires s in the open strip.
    """
    sc = _open_strip(m, s, "bessel_vector")
    if x_norm <= 0:
        raise DomainError("bessel_vector requires x_norm > 0")
    return _c_m(m) * 2.0 ** (1.0 - m / 2.0) * rgamma(m / 2.0 + sc) * bessel_k(sc, x_norm)


def bessel_vector_norm_sq(m: int, s) -> float:
    """Squared L^2 norm of the kernel vector, in closed Gamma form.

    Real, positive, equal to 1 on the imaginary axis, and symmetric in
    both sigma -> -sigma and t -> -t.
    """
    sc = _open_strip(m, s, "bessel_vector_norm_sq")
    half, axis = m / 2.0, complex(m / 2.0, sc.imag)
    return abs(gamma_ratio((half + sc.real, half - sc.real, axis, axis),
                           (half, half, half + sc, half + sc)))


# |Im s| beyond which K_s is far below the K_nu kernel's rounding floor
_L1_NORM_MAX_T = 64.0


def multiplier_l1_norm(m: int, s, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """L^1 norm of the squared-Bessel kernel whose Fourier transform is
    phi_s restricted to the nilpotent part; equals cb_norm_lorentz.

    Computed by quadrature:  2^(3-m) G(m) / (G(m/2)^2 |G(m/2+s) G(m/2-s)|)
    times int_0^inf |K_s(r)|^2 r^(m-1) dr, ``bessel_product_moment``'s
    integral, which ``specfun._kernel_integral`` takes with this constant as
    its scale.  K_s ~ e^(-pi |Im s| / 2) K_sigma sinks toward the K_nu
    kernel's rounding floor, 8 ulps of K_sigma, as |Im s| grows: the
    integral raises ConvergenceError, with its estimate in the units of the
    norm, once that floor, integrated, exceeds the tolerance (at m = 3 and
    sigma = 0.3 from |Im s| = 13.24 on, where it is 2e-12 off the cb norm
    just before), and beyond |Im s| = 64 it raises at once.
    """
    sc = _open_strip(m, s, "multiplier_l1_norm")
    if abs(sc.imag) > _L1_NORM_MAX_T:
        raise ConvergenceError(
            f"multiplier_l1_norm: K_s is below the quadrature's rounding floor at s={sc}")
    half = m / 2.0
    const = 2.0 ** (3.0 - m) * abs(gamma_ratio((float(m),), (half, half, half + sc, half - sc)))
    return _kernel_integral(sc, sc.conjugate(), complex(m - 1.0), 0.0, 0.0, None, spec, 3,
                            "bessel moment quadrature", const).real


# ---------------------------------------------------------------------------
# The extension of phi_s to the solvable part, by direct quadrature.


# Most entries of one cosine matrix in ``_angular_factor`` (8 MB of floats).
_CIRCLE_ENTRIES = 2 ** 20


def _angular_factor(m: int, lam: np.ndarray) -> np.ndarray:
    """int_{S^(m-1)} cos(lam <omega, e1>) dsurface(omega), vectorized in lam:
    2 cos(lam), 2 pi J_0(lam) by the trapezoid rule over the circle, and
    4 pi sin(lam) / lam for m = 1, 2, 3.  J_0 runs only where |lam| >= 1e-8,
    not on the long small-x tail of the kernel integrals, on chunks of the
    points sorted by |lam|: each chunk's circle grid, 64 + 8 ceil(|lam| / 4)
    points, is sized from its own largest |lam|, and its cosine matrix has
    at most about 2^20 entries."""
    if m not in (1, 2, 3):
        raise DomainError("direct quadrature supports m in {1, 2, 3}")
    lam = np.asarray(lam, dtype=float)
    if m == 1:
        return 2.0 * np.cos(lam)
    if m == 3:
        return 4.0 * math.pi * np.sinc(lam / math.pi)
    out = np.full(lam.shape, 2.0 * math.pi)
    flat, mags = out.reshape(-1), np.abs(lam).reshape(-1)
    order = np.flatnonzero(mags >= 1e-8)
    if not order.size:
        return out
    order = order[np.argsort(mags[order])]
    sizes = 64 + 8 * np.ceil(mags[order] / 4.0).astype(int)
    start = 0
    while start < order.size:
        # (k + 1) sizes[start + k] grows with k: the chunk is the longest that fits
        entries = np.arange(1, order.size - start + 1) * sizes[start:]
        stop = start + max(1, int(np.searchsorted(entries, _CIRCLE_ENTRIES, side="right")))
        chunk, n = order[start:stop], int(sizes[stop - 1])
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        flat[chunk] = (np.cos(np.outer(mags[chunk], np.cos(theta))).sum(axis=1)
                       * (2.0 * math.pi / n))
        start = stop
    return out


def phi_on_na(m: int, s, r: float, y, spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """phi_s(a_r n_y) through the Bessel-kernel coefficient integral.

    For y = 0 this reproduces phi_s(a_r); for r = 0 it is the Fourier
    transform of the squared-Bessel kernel at y.  Supports m in {1,2,3}
    and s in the open strip.  The integral of K_s(e^r x) K_s(x) x^(m-1)
    against the angular factor at e^r |y| x is ``specfun._kernel_integral``
    of those parameters, bisected up to twice while its embedded error
    estimate misses the tolerance; it holds up to the strip edge (checked
    at sig = |Re s| = m/2 - 0.001, where the grid has about 5,900 panels).
    Raises ConvergenceError, with the estimate in the units of the value,
    when two bisections do not meet the tolerance, when the grid or a
    bisection would need more than ``spec.max_panels`` panels (for real s
    from sig of about m/2 - 0.0003 at the default spec), and when the
    kernels' rounding floor, integrated, exceeds relative_tolerance times
    the integral of |integrand| (at large |Im s|: at m = 1, sigma = 0.3,
    r = 0.7 and y = 0 at scattered points of [7.71, 8.54] and from about
    9.9 on).
    """
    if m not in (1, 2, 3):
        raise DomainError("phi_on_na supports m in {1, 2, 3}")
    sc = _open_strip(m, s, "phi_on_na")
    r = float(r)
    y_norm = float(np.linalg.norm(np.atleast_1d(np.asarray(y, dtype=float))))
    lam = math.exp(r) * y_norm  # oscillation rate of the plane wave
    pref = (math.pi ** (-m / 2.0) * 2.0 ** (2.0 - m) * math.exp(m * r / 2.0)
            * gamma_ratio((float(m),), (m / 2.0, m / 2.0 + sc, m / 2.0 - sc)))
    return _kernel_integral(sc, sc, complex(m - 1.0), r, lam, lambda x: _angular_factor(m, x),
                            spec, 2, "phi_on_na quadrature", pref)


def cesaro_extract(phi_map, x0: float, n: int) -> complex:
    """Point-mass estimator (1/n) int_n^{2n} e^(i r x0) phi(r) dr.

    Recovers the mass a regular measure puts at x0 from its transform
    phi, in the limit n -> infinity; finite n gives an O(1/n) estimate.
    ``phi_map`` is called once, on the array of quadrature nodes.
    """
    if n < 1:
        raise DomainError("cesaro_extract requires n >= 1")
    lo, hi = float(n), 2.0 * float(n)
    n_panels = max(8, int(math.ceil(hi - lo)))
    edges = np.linspace(lo, hi, n_panels + 1)

    def integrand(rs):
        return np.exp(1j * x0 * rs) * np.asarray(phi_map(rs), dtype=complex)

    return composite(integrand, edges)[0] / float(n)
