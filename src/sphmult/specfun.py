"""Special functions of complex parameters.

Everything here is built from a Lanczos evaluation of the Gamma function
and from quadrature: composite Gauss-Legendre for the Bessel-kernel
integrals, the trapezoidal rule for K_nu.  The module keeps
its own closed forms and its quadrature oracles strictly separate, so each
side can be used to validate the other:

* ``gamma``/``log_gamma``/``beta``/``hyp2f1`` are closed-form evaluations;
  every Gamma product, ``gamma`` and ``rgamma`` included, is one
  ``gamma_ratio`` call (direct below |Im z| = 32, paired logs beyond),
  which holds to |Im z| = 1e4,
* ``bessel_k`` and ``bessel_k_many`` evaluate the cosh-integral
  representation K_nu(x) = int_0^inf exp(-x*cosh(t)) * cosh(nu*t) dt (x > 0)
  through one batched kernel: a nested trapezoidal rule with steps 2^-p,
  whose integrand is analytic in a strip, so that it converges geometrically
  and each halving adds only the odd nodes; a point stops at step h where
  its even nodes (step 2h) predict below 1e-12, off the rounding floor.
  Points sorted by truncation point share the nodes in runs of up to 256,
  each level is one matrix product, and every point keeps its own stopping
  rule.  Below x = 1e-8 one closed form, the two leading terms of the
  small-argument expansion scaled by x^|Re nu| and written in v = log x,
  takes over,
* every Bessel-kernel integral, int K_nu(e^shift x) K_mu(x) x^power
  wave(lam x) dx (``bessel_product_moment``, ``spherical.phi_on_na``,
  ``lorentz.coefficient_pairing``), is one ``_kernel_integral`` of those
  parameters, the one owner of its grid (``_kernel_edges``), its kernels
  x^|Re nu| K_nu(x) with their rounding floor (``_bessel_k_scaled``) and the
  weight that undoes their scaling: panels in v = log x bisected only where
  the embedded rule's error estimate misses the tolerance, and
  ConvergenceError where the floor, integrated, exceeds the tolerance,
* ``weber_schafheitlin_rhs`` is the Gamma-product closed form of the
  moment integral int_0^inf K_nu(r) K_mu(r) r^(-rho) dr, and
  ``bessel_product_moment`` is its quadrature counterpart.

Target accuracy is 1e-12 relative for the closed forms and the caller's
QuadratureSpec tolerance for the integral routines.  ``bessel_k`` is
accurate to max(1e-12 |K_nu(x)|, 8 ulps K_{|Re nu|}(x)): near zeros of
K_nu with imaginary part in the order, and at large |Im nu|, its relative
accuracy is limited by the conditioning K_{|Re nu|}(x) / |K_nu(x)|.  A closed-form
value beyond the float range raises ConvergenceError, never a bare
OverflowError or ZeroDivisionError.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import count
from typing import Sequence

from .errors import ConvergenceError, DomainError, PoleError
from .quadrature import (_TRUNCATION_MARGIN, DEFAULT_SPEC, QuadratureSpec, _numpy, _panel_width,
                         composite, oscillation_edges)

np = _numpy(__name__)

SPECIAL_RTOL = 1e-12
MAX_SERIES_TERMS = 100_000

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Lanczos approximation, g = 7 with 9 coefficients.  Accurate to about
# 1e-13 relative on the half-plane Re z >= 0.5; the reflection formula
# covers the rest.
_LANCZOS_G = 7.0
_L0, _L1, _L2, _L3, _L4, _L5, _L6, _L7, _L8 = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_POLE_TOL = 1e-12


def _near_nonpositive_integer(z: complex, tol: float = _POLE_TOL) -> bool:
    if z.real >= tol:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < tol


# Largest w with exp(w) in the float range.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# |Im z| bound, per argument, of gamma_ratio's direct form; c(s) meets
# Gammas at s/2, so it stays direct up to |Im s| = 64.
_DIRECT_GAMMA_IM = 32.0


def gamma_ratio(nums: Sequence[complex], dens: Sequence[complex] = ()) -> complex:
    """prod Gamma(nums) / prod Gamma(dens), the one owner of Gamma products.

    While every argument has |Im z| <= 32, the product of direct Lanczos
    values; beyond that, or where it leaves the float range, one exp of
    summed logs, in which each numerator meets the first unused denominator
    with its imaginary part y in ``log_gamma_ratio``'s paired form (any real
    parts), so that their e^(-pi |y| / 2) decays cancel: within 1e-13 of
    mpmath up to |y| = 1e4.  0 at a denominator pole, PoleError at a
    numerator pole, ConvergenceError beyond the float range.
    """
    nums = [complex(z) for z in nums]
    dens = [complex(z) for z in dens]
    direct = True
    for z in nums:
        if _near_nonpositive_integer(z):
            raise PoleError(f"gamma pole at or near z={z}")
        direct = direct and abs(z.imag) <= _DIRECT_GAMMA_IM
    for z in dens:
        if _near_nonpositive_integer(z):
            return 0.0 + 0.0j
        direct = direct and abs(z.imag) <= _DIRECT_GAMMA_IM
    if direct:
        try:
            value = math.prod(map(_gamma_direct, nums)) / math.prod(map(_gamma_direct, dens))
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if value != 0 and cmath.isfinite(value):
            return complex(value)
    w = _log_gamma_sum(nums, dens)
    if not w.real <= _LOG_FLOAT_MAX:
        raise ConvergenceError(
            f"the Gamma ratio of {nums} over {dens} is beyond the float range")
    return cmath.exp(w)


def _log_gamma_sum(nums: list[complex], dens: list[complex]) -> complex:
    """A logarithm of gamma_ratio(nums, dens), pairing equal imaginary parts."""
    dens = list(dens)
    total = 0.0j
    for z in nums:
        d = next((d for d in dens if d.imag == z.imag), None)
        if d is None:
            total += log_gamma(z)
            continue
        dens.remove(d)
        total += _paired_log_ratio(z, d)
    for d in dens:
        total -= log_gamma(d)
    return total


def gamma(z: complex) -> complex:
    """Gamma function of a complex argument; ``gamma_ratio`` of one numerator.

    Satisfies the recurrence Gamma(z+1) = z*Gamma(z), Legendre's
    duplication formula and conjugation symmetry to ~1e-13 relative.
    Raises PoleError within 1e-12 of the poles at 0, -1, -2, ..., and
    ConvergenceError where Gamma(z) itself is beyond the float range.
    """
    return gamma_ratio((z,))


def _gamma_direct(z: complex) -> complex:
    """The Lanczos form, reflected below Re z = 1/2; may overflow."""
    if z.real < 0.5:
        # Reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z)).
        return math.pi / (cmath.sin(math.pi * z) * _gamma_direct(1.0 - z))
    zz, t, acc = _lanczos(z)
    return _SQRT_TWO_PI * t ** (zz + 0.5) * cmath.exp(-t) * acc


def log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z), finite wherever z is not a pole.

    The Lanczos sum in log form for Re z >= 1/2; below, the reflection
    log pi - log sin(pi z) - log Gamma(1 - z) with
    log sin(pi z) = -i pi z + log((e^(2 pi i z) - 1) / 2i) for Im z >= 0
    and its conjugate below, so that nothing overflows.  The imaginary
    part is a branch, not necessarily the principal one.
    """
    z = complex(z)
    if _near_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at or near z={z}")
    if z.real < 0.5:
        if z.imag < 0.0:
            return log_gamma(z.conjugate()).conjugate()
        log_sin = -1j * math.pi * z + cmath.log((cmath.exp(2j * math.pi * z) - 1.0) / 2j)
        return math.log(math.pi) - log_sin - log_gamma(1.0 - z)
    zz, t, acc = _lanczos(z)
    return math.log(_SQRT_TWO_PI) + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _lanczos(z: complex) -> tuple[complex, complex, complex]:
    """z - 1, z + g - 1/2 and the Lanczos sum, for Re z >= 0.5."""
    zz = z - 1.0
    acc = (_L0 + _L1 / (zz + 1.0) + _L2 / (zz + 2.0) + _L3 / (zz + 3.0) + _L4 / (zz + 4.0)
           + _L5 / (zz + 5.0) + _L6 / (zz + 6.0) + _L7 / (zz + 7.0) + _L8 / (zz + 8.0))
    return zz, zz + _LANCZOS_G + 0.5, acc


def log_gamma_ratio(x1: float, x2: float, y: float) -> complex:
    """log G(x1 + iy) - log G(x2 + iy) for x1, x2 > 0 and real y.

    exp of it is the ratio of the two Gammas.  Their e^(-pi |y| / 2)
    decay cancels before it is formed: in the Lanczos form the two
    y log(t) terms enter as one y log(t1 / t2), so the result is accurate
    to about 1e-14 absolute at y = 1e4.
    """
    if x1 <= 0.0 or x2 <= 0.0:
        raise DomainError("log_gamma_ratio requires positive real parts")
    return _paired_log_ratio(complex(x1, y), complex(x2, y))


def _paired_log_ratio(z1: complex, z2: complex) -> complex:
    """log_gamma_ratio's form for Im z1 = Im z2 and any real parts, each
    first moved to Re z >= 1/2 by Gamma(z) = Gamma(z + 1) / z."""
    y = z1.imag

    def parts(z):
        shift = 0.0j
        while z.real < 0.5:
            z, shift = z + 1.0, shift + cmath.log(z)
        _, t, acc = _lanczos(z)
        return (z.real - 0.5) * cmath.log(t) - t.real + cmath.log(acc) - shift, t

    p1, t1 = parts(z1)
    p2, t2 = parts(z2)
    # log(t1 / t2), t = a + iy, without rounding |t1 / t2| = 1 + O(y^-2)
    a1, a2 = t1.real, t2.real
    log_ratio = complex(0.5 * math.log1p((a1 - a2) * (a1 + a2) / (a2 * a2 + y * y)),
                        math.atan2(y * (a2 - a1), a1 * a2 + y * y))
    return p1 - p2 + 1j * y * log_ratio


def rgamma(z: complex) -> complex:
    """Reciprocal Gamma function, ``gamma_ratio`` of one denominator: zero
    at the poles of Gamma, ConvergenceError beyond the float range."""
    return gamma_ratio((), (z,))


def beta(a: complex, b: complex) -> complex:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for Re a, Re b > 0."""
    a, b = complex(a), complex(b)
    if a.real <= 0 or b.real <= 0:
        raise DomainError("beta requires arguments with positive real part")
    return gamma_ratio((a, b), (a + b,))


# B_2k / (2k) for k = 1..7: coefficients of the digamma asymptotic tail.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(z: complex) -> complex:
    """Logarithmic derivative of Gamma, psi(z) = Gamma'(z)/Gamma(z)."""
    z = complex(z)
    if _near_nonpositive_integer(z):
        raise PoleError(f"digamma pole at or near z={z}")
    if z.real < 0.5:
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    acc = 0.0 + 0.0j
    while z.real < 9.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0 + 0.0j
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return acc + cmath.log(z) - 0.5 / z - tail


_EPS = sys.float_info.epsilon


def _sum_series(terms, rtol, what, max_terms=MAX_SERIES_TERMS):
    """The sum of the series ``terms``, by the one series stopping rule:
    three consecutive terms at most rtol times the partial sum.  Raises
    ConvergenceError when the sum cancels below rtol, eps * sum |term| >
    rtol * |sum|, when it leaves the float range, and after max_terms terms.
    """
    total = 0.0j
    mass = 0.0
    small = 0
    for _, term in zip(range(max_terms), terms):
        total += term
        try:
            size = abs(term)
        except OverflowError:
            size = math.inf
        mass += size
        if not mass < math.inf:  # mass >= |total|; a nan term makes it nan
            raise ConvergenceError(f"{what} is beyond the float range")
        # |total| <= mass, so the first test spares most terms the second
        if size <= rtol * mass and size <= rtol * abs(total):
            small += 1
            if small >= 3:
                if _EPS * mass > rtol * abs(total):
                    raise ConvergenceError(f"{what} cancels below its tolerance",
                                           best_estimate=total, achieved_error=_EPS * mass)
                return total
        else:
            small = 0
    raise ConvergenceError(f"{what} did not converge within {max_terms} terms",
                           best_estimate=total, achieved_error=size)


def _gauss_terms(a, b, c, z):
    """The terms (a)_k (b)_k / ((c)_k k!) z^k of the Gauss series."""
    term = 1.0 + 0.0j
    for k in count():
        yield term
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z


def _hyp2f1_series(a, b, c, z, rtol, max_terms=MAX_SERIES_TERMS):
    """The Gauss series F(a, b; c; z), summed by ``_sum_series``."""
    return _sum_series(_gauss_terms(a, b, c, z), rtol, "hypergeometric series", max_terms)


def _hyp2f1_log_case(a, b, w, rtol):
    """F(a, b; a+b; 1-w) via the logarithmic connection expansion.

    Valid for small |w| (w = 1-z) when c = a + b exactly; the expansion is
    sum_n [(a)_n (b)_n / (n!)^2] * [2 psi(n+1) - psi(a+n) - psi(b+n) - log w] w^n
    times Gamma(a+b)/(Gamma(a)Gamma(b)).
    """
    if w == 0:
        raise ConvergenceError("2F1 diverges at unit argument when c = a + b")

    def terms():
        log_w = cmath.log(w)
        poch = 1.0 + 0.0j
        psi_n1, psi_a, psi_b = digamma(1.0), digamma(a), digamma(b)
        for n in count():
            yield poch * (2.0 * psi_n1 - psi_a - psi_b - log_w)
            poch *= (a + n) * (b + n) / ((n + 1.0) ** 2) * w
            psi_n1 += 1.0 / (n + 1.0)
            psi_a += 1.0 / (a + n)
            psi_b += 1.0 / (b + n)

    return gamma_ratio((a + b,), (a, b)) * _sum_series(terms(), rtol, "logarithmic 2F1 expansion")


def _hyp2f1_near_one(a, b, c, d, w, rtol):
    """F(a, b; c; 1-w) for small real w >= 0 and d = c - a - b not an
    integer, via the z -> 1-z connection.

    F = A * F(a, b; a+b-c+1; w) + B * w^(c-a-b) * F(c-a, c-b; c-a-b+1; w)
    with A = G(c)G(c-a-b)/(G(c-a)G(c-b)), B = G(c)G(a+b-c)/(G(a)G(b)).
    The two-term sum is not checked: near an integer d, A and B cancel.
    """
    if w == 0:
        if d.real > 0:
            return gamma_ratio((c, d), (c - a, c - b))
        raise ConvergenceError(
            "2F1 diverges at unit argument for Re(c-a-b) <= 0"
        )
    # for real b, c (phi_lorentz_hyp2) d pairs with c - a and -d with a
    coeff_a = gamma_ratio((c, d), (c - a, c - b))
    coeff_b = gamma_ratio((c, -d), (a, b))
    f1 = _hyp2f1_series(a, b, a + b - c + 1.0, w, rtol)
    f2 = _hyp2f1_series(c - a, c - b, d + 1.0, w, rtol)
    return coeff_a * f1 + coeff_b * w**d * f2


_SERIES_RADIUS = 0.75


def _hyp2f1_zw(a, b, c, z, w, rtol):
    """Core dispatcher; ``z`` and ``w`` are the same point with w = 1 - z.

    Passing both lets callers that know 1-z exactly (e.g. sech^2 r paired
    with tanh^2 r) avoid the cancellation of forming it from z.  Every
    series raises ConvergenceError where it cancels below rtol.  Within
    1e-8 of an integer d = c - a - b other than 0, where no connection
    formula is used, this function raises it itself for z >= 0.999.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if _near_nonpositive_integer(c):
        raise DomainError("2F1 undefined for c a non-positive integer")
    if z == 0:
        return 1.0 + 0.0j
    degrees = [-round(p.real) for p in (a, b) if _near_nonpositive_integer(p)]
    if degrees:
        # a polynomial of degree k: k + 1 terms, then the three zeros that stop the sum
        return _hyp2f1_series(a, b, c, z, rtol, max_terms=min(degrees) + 4)
    if abs(z) <= _SERIES_RADIUS:
        return _hyp2f1_series(a, b, c, z, rtol)
    if z.imag == 0.0:
        x = z.real
        if x < 0.0:
            # Pfaff transformation maps (-inf, 0) into [0, 1).
            zz = x / (x - 1.0)
            ww = 1.0 / (1.0 - x)
            return (1.0 - x) ** (-a) * _hyp2f1_zw(a, c - b, c, zz, ww, rtol)
        if x <= 1.0:
            wr = w.real if isinstance(w, complex) else float(w)
            d = c - a - b
            if abs(d) < 1e-13:
                return _hyp2f1_log_case(a, b, wr, rtol)
            if abs(d - round(d.real)) >= 1e-8:
                return _hyp2f1_near_one(a, b, c, d, wr, rtol)
            # Integer c-a-b: no linear connection formula.
            # The plain series still converges for z < 1, slowly.
            if x < 0.999:
                return _hyp2f1_series(a, b, c, x, rtol)
            raise ConvergenceError(
                "2F1 with integer c-a-b unsupported this close to z = 1"
            )
    raise DomainError(
        "2F1 argument outside the supported region "
        "(|z| <= 0.75, real z < 0, or real z in [0.75, 1])"
    )


def hyp2f1(a: complex, b: complex, c: complex, z: complex,
           rtol: float = SPECIAL_RTOL) -> complex:
    """Gauss hypergeometric function F(a, b; c; z).

    Supported arguments: any complex z with |z| <= 0.75 (power series),
    real z < 0 (Pfaff transformation), and real z in [0.75, 1] (connection
    formula at unit argument, including the logarithmic case c = a + b).
    Other regions raise DomainError; they are never needed here.  Every
    series, the power series and the connection and logarithmic series at
    unit argument, raises ConvergenceError when its terms cancel below
    rtol, i.e. when eps * sum |term| > rtol * |sum| (at large |Im|
    parameters); so do a value beyond the float range and an integer
    c - a - b other than 0 for z in [0.999, 1].  The two-term sum of the
    connection formula is not checked: near an integer c - a - b its
    Gamma coefficients cancel (9.2e-6 off at F(0.25, 0.45; 1.7 + 1e-7; 0.95)).
    """
    z = complex(z)
    try:
        value = _hyp2f1_zw(a, b, c, z, 1.0 - z, rtol)
    except OverflowError:
        value = complex(math.nan)
    if not cmath.isfinite(value):
        raise ConvergenceError("2F1 is beyond the float range")
    return value


def gauss_value(a: complex, b: complex, c: complex) -> complex:
    """F(a, b; c; 1) = G(c)G(c-a-b) / (G(c-a)G(c-b)) for Re(c-a-b) > 0."""
    d = complex(c) - a - b
    if d.real <= 0:
        raise DomainError("2F1 at unit argument requires Re(c-a-b) > 0")
    return gamma_ratio((c, d), (c - a, c - b))


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind, complex order.

EULER_GAMMA = 0.5772156649015329

# Rounding floor of the K_nu quadrature: 8 ulps of the L1 mass K_sigma(x).
_BESSEL_ROUNDING_FLOOR = 8.0 * sys.float_info.epsilon

# Below this the two leading terms of the small-argument expansion are
# already exact to double precision (corrections are O(x^2) relative).
_BESSEL_SMALL_X = 1e-8
_LOG_BESSEL_SMALL_X = math.log(_BESSEL_SMALL_X)

# Orders |nu| <= _TEMME_NU take Temme's form, with
# (log G(1+nu) - log G(1-nu)) / nu = -2 (gamma + sum_j zeta(2j+1) nu^2j / (2j+1))
# to j = 3 (the next term is below 3e-17).  Beyond it the two Gamma terms
# cancel by less than 1 / (|nu| log(2/r)) < 6, and the direct form is used.
_TEMME_NU = 0.01
_TEMME_ZETA = (1.2020569031595943 / 3.0, 1.0369277551433699 / 5.0, 1.0083492773819228 / 7.0)
_BESSEL_PAIR_TOL = 1e-15


def _bessel_small_scaled(nu: complex, vs: np.ndarray) -> np.ndarray:
    """r^sigma K_nu(r), sigma = |Re nu|, at r = e^v < _BESSEL_SMALL_X.

    The two leading terms (G(nu) (r/2)^-nu + G(-nu) (r/2)^nu) / 2 for
    Re nu >= 0, written in v so that r is never formed.  Both are O(1/nu)
    near nu = 0, where Temme's form takes them together as
    -G(1+nu) (r/2)^-nu expm1(nu mu) / (2 nu), with
    nu mu = 2 nu log(r/2) + log G(1-nu) - log G(1+nu); it gives
    -(log(r/2) + gamma) at nu = 0.  Near a nonzero integer n the second
    term cancels against the first one's (r/2)^(2n) correction, so both are
    left out where (r/2)^2 >= _BESSEL_PAIR_TOL |nu - n|, and within 1e-12
    of n, where G(-nu) is at its pole and the pair is below 1e-15 of the
    first term.  Either way the omitted terms are below about 1e-15
    relative.
    """
    if nu.real < 0:
        nu = -nu
    if abs(nu) <= _TEMME_NU:
        nu2 = nu * nu
        mu = 2.0 * (vs - math.log(2.0) + EULER_GAMMA
                    + nu2 * (_TEMME_ZETA[0] + nu2 * (_TEMME_ZETA[1] + nu2 * _TEMME_ZETA[2])))
        # (e^(nu mu) - 1) / nu, which is mu to double precision for tiny nu
        pair = np.expm1(nu * mu) / nu if abs(nu) > 1e-200 else mu
        return -0.5 * gamma(1.0 + nu) * 2.0**nu * np.exp(-1j * nu.imag * vs) * pair
    first = gamma(nu) * 2.0**nu * np.exp(-1j * nu.imag * vs)
    n = round(nu.real)
    gap = abs(nu - n) if n else math.inf
    if gap < _POLE_TOL:
        return 0.5 * first
    keep = vs < math.log(2.0) + 0.5 * math.log(_BESSEL_PAIR_TOL * gap)  # (r/2)^2 < tol gap
    second = gamma(-nu) * 2.0**-nu * np.exp((2.0 * nu.real + 1j * nu.imag) * vs)
    return 0.5 * (first + np.where(keep, second, 0.0))


def _bessel_small_mass(sigma: float, vs: np.ndarray) -> np.ndarray:
    """r^sigma K_sigma(r) at r = e^v < _BESSEL_SMALL_X, the floor's scale, to 1e-4
    from real leading terms: -(log(r/2) + gamma) below sigma = 1e-8, G(sigma)
    2^(sigma-1) from 1 on, both in Temme's form with real log Gammas between."""
    if sigma < 1e-8:
        return math.log(2.0) - EULER_GAMMA - vs
    if sigma >= 1.0:
        return np.full(vs.shape, 0.5 * gamma(sigma).real * 2.0**sigma)
    shift = math.lgamma(1.0 - sigma) - math.lgamma(1.0 + sigma) - 2.0 * sigma * math.log(2.0)
    return -0.5 * math.gamma(1.0 + sigma) * 2.0**sigma * np.expm1(2.0 * sigma * vs + shift) / sigma


def _bessel_k_scaled(nu: complex, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r^sigma K_nu(r) and r^sigma K_sigma(r), sigma = |Re nu|, at r = e^v for
    every v: the small-x form in v below _BESSEL_SMALL_X, the K_nu kernel
    above it.  The second array is the scale of the first one's rounding
    floor; ``_kernel_integral`` integrates it."""
    out = np.empty(vs.shape, dtype=complex)
    mass = np.empty(vs.shape)
    small = vs < _LOG_BESSEL_SMALL_X
    if small.any():
        out[small] = _bessel_small_scaled(nu, vs[small])
        mass[small] = _bessel_small_mass(abs(nu.real), vs[small])
    rest = vs[~small]
    scale = np.exp(abs(nu.real) * rest)
    k, k_sigma = _bessel_k_array(nu, np.exp(rest))
    out[~small] = k * scale
    mass[~small] = k_sigma * scale
    return out, mass


def _kernel_edges(nu: complex, mu: complex, power: complex, shift: float, lam: float,
                  spec: QuadratureSpec) -> np.ndarray:
    """Panel edges in v = log x for int K_nu(e^shift x) K_mu(x) x^power dx
    times a plane wave of rate lam in x.

    The grid starts where the decay e^(d v), d = Re power + 1 - |Re nu| -
    |Re mu|, has spent the truncation depth D, and ends where the kernels'
    e^(-(1 + e^shift) x) has spent D plus pi max(|Im nu|, |Im mu|) (the
    integral lies that far below their envelope) against x^(Re power + 1).
    Panels are one period of the rate |Im nu| + |Im mu| + |Im power| + lam x
    wide, at most pi below x = 1e-8 and above it at most 1.8 and three widths
    of the integrand's peak.  Raises DomainError when d <= 0, ConvergenceError
    before building a grid of more than ``spec.max_panels`` panels.
    """
    decay = power.real + 1.0 - abs(nu.real) - abs(mu.real)
    if decay <= 0:
        raise DomainError("Bessel-kernel integrand is not integrable at x = 0")
    depth = spec.truncation_depth
    v_min = -depth / decay
    depth_right = depth + math.pi * max(abs(nu.imag), abs(mu.imag))
    rate = 1.0 + math.exp(shift)
    v_max = 0.0
    for _ in range(5):
        v_max = math.log(max((depth_right + (power.real + 1.0) * v_max) / rate, 1e-3))
    v_split = min(max(v_min, _LOG_BESSEL_SMALL_X - max(shift, 0.0)), v_max)
    osc = abs(nu.imag) + abs(mu.imag) + abs(power.imag)
    cap = min(1.8, 3.2 / math.sqrt(power.real + 1.0))  # the peak is about 1/sqrt(power) wide
    fewest = ((v_split - v_min) / _panel_width(osc, math.pi)
              + (v_max - v_split) / _panel_width(osc, cap))
    if fewest > spec.max_panels:
        raise ConvergenceError(f"Bessel-kernel quadrature needs at least {math.ceil(fewest)} "
                               f"panels, more than max_panels={spec.max_panels}")
    return np.concatenate([oscillation_edges(v_min, v_split, osc, lam, math.pi)[:-1],
                           oscillation_edges(v_split, v_max, osc, lam, cap)])


def _kernel_integral(nu: complex, mu: complex, power: complex, shift: float, lam: float, wave,
                     spec: QuadratureSpec, levels: int, what: str, scale: complex) -> complex:
    """scale times int_0^inf K_nu(e^shift x) K_mu(x) x^power wave(lam x) dx
    (no wave: 1) on the grid of ``_kernel_edges``, in v = log x.

    The kernels are ``_bessel_k_scaled``'s x^|Re nu| K_nu: one call where
    mu = nu (at v + shift and v) or mu = conj nu at shift 0, two otherwise;
    the weight exp((power + 1 - |Re nu| - |Re mu|) v - |Re nu| shift) undoes
    their scaling.  composite() sums the value, its modulus and its rounding
    floor 8 ulps (M1 |K2| + |K1| M2) |scale weight|; a floor whose integral
    exceeds relative_tolerance times that of |integrand| (not of the value,
    whose zeros would trip it) raises ConvergenceError.  Panels are bisected
    up to ``levels`` times (none: level 0 unchecked) while the error
    estimate exceeds relative_tolerance * max(|value|, absolute_tolerance),
    and ConvergenceError is raised when the last level misses it or before
    a bisection would exceed ``spec.max_panels``.  The scale enters every
    node, so values and ConvergenceError payloads are in caller units.
    """
    sigma = abs(nu.real)
    exponent = power + 1.0 - sigma - abs(mu.real)

    def rows(vs):
        if mu == nu and shift:  # K_nu at v + shift and at v, from one call
            (k1, k2), (m1, m2) = _bessel_k_scaled(nu, np.add.outer((shift, 0.0), vs))
        else:
            k1, m1 = _bessel_k_scaled(nu, vs + shift)
            if shift or mu not in (nu, nu.conjugate()):
                k2, m2 = _bessel_k_scaled(mu, vs)
            else:
                k2, m2 = k1 if mu == nu else np.conjugate(k1), m1
        w = np.exp(exponent * vs - sigma * shift)
        w = scale * (w if wave is None else wave(lam * np.exp(vs)) * w)
        value = k1 * k2 * w
        floor = _BESSEL_ROUNDING_FLOOR * (m1 * np.abs(k2) + np.abs(k1) * m2) * np.abs(w)
        return np.stack([value, np.abs(value), floor])

    edges = _kernel_edges(nu, mu, power, shift, lam, spec)
    for level in range(levels + 1):
        (value, size, floor), errors = composite(rows, edges)
        value, err = complex(value), float(errors[0])
        if floor.real > spec.relative_tolerance * size.real:
            raise ConvergenceError(
                "the K_nu kernel's rounding floor exceeds the quadrature tolerance",
                best_estimate=value, achieved_error=float(floor.real))
        if not levels or err <= spec.relative_tolerance * max(abs(value), spec.absolute_tolerance):
            return value
        if level == levels or 2 * (len(edges) - 1) > spec.max_panels:
            break
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    raise ConvergenceError(f"{what} did not converge on {len(edges) - 1} panels (max_panels="
                           f"{spec.max_panels})", best_estimate=value, achieved_error=err)


# Most points that share the trapezoid nodes in the batched K_nu kernel:
# on kernel-benchmark passes (2 cores) 128 and 256 tied, and 64 and 512
# were 15-25 % slower.
_BESSEL_RUN = 256


def _bessel_step(nu: complex, x_max: float) -> float:
    """Trapezoid step 2^-p of the first level for points up to x_max: below
    2 pi / (|Im nu| + 19), so that cos(t Im nu) does not alias, and below
    0.81 times the width (x_max^2 + sigma^2)^(-1/4) of the integrand's
    peak, so that the first level already meets 1e-12."""
    bound = max((abs(nu.imag) + 19.0) / (2.0 * math.pi),
                math.sqrt(math.hypot(x_max, nu.real)) / 0.81)
    return 2.0 ** -math.ceil(math.log2(bound))


def _bessel_sums(nu: complex, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Sums over the nodes ts of exp(-x (cosh t - 1)) times Re cosh(nu t),
    Im cosh(nu t) and cosh(sigma t), sigma = |Re nu|: one row per x, from
    one matrix product; a node at t = 0 enters at half weight."""
    # cosh((a + ib) t) = cosh(at) cos(bt) + i sinh(at) sin(bt), and
    # cosh(at) = cosh(sigma t) weights K_sigma.
    at, bt = nu.real * ts, nu.imag * ts
    columns = np.empty((ts.size, 3))
    columns[:, 2] = np.cosh(at)
    columns[:, 0] = columns[:, 2] * np.cos(bt)
    columns[:, 1] = np.sinh(at) * np.sin(bt)
    if ts[0] == 0.0:
        columns[0] *= 0.5
    half = np.sinh(0.5 * ts)
    kernel = np.multiply.outer(-2.0 * xs, half * half)  # -x (cosh t - 1)
    return np.exp(kernel, out=kernel) @ columns


def _bessel_k_array(nu: complex, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one K_nu kernel behind ``bessel_k`` and ``bessel_k_many``: K_nu(x)
    and K_sigma(x), sigma = |Re nu|, which bounds the integrand's L1 mass."""
    if not np.all(xs > 0):
        raise DomainError("bessel_k requires x > 0")
    out = np.empty(xs.shape, dtype=complex)
    masses = np.empty(xs.shape)
    small = xs < _BESSEL_SMALL_X
    sigma = abs(nu.real)
    if small.any():
        logs = np.log(xs[small])
        with np.errstate(over="ignore", invalid="ignore"):
            scale = xs[small] ** -sigma
            out[small] = _bessel_small_scaled(nu, logs) * scale
            if not np.isfinite(out[small]).all():
                raise ConvergenceError("bessel_k at small x is beyond the float range")
            masses[small] = _bessel_small_mass(sigma, logs) * scale
    rest = xs[~small]
    # Cut each integral at the T where x cosh T - sigma T exceeds its value
    # at the envelope's peak, t = asinh(sigma / x), by 40 e-folds (~4e-18)
    # plus the truncation margin.  Started below the peak (target < 0 at
    # small x, large sigma), the iteration would stay at 0.
    t_peak = np.arcsinh(sigma / rest)
    target = rest * np.cosh(t_peak) - sigma * t_peak + 40.0 + _TRUNCATION_MARGIN
    cuts = np.maximum(np.arccosh(np.maximum(1.0, target / rest)), t_peak)
    for _ in range(4):
        cuts = np.arccosh(np.maximum(1.0, (target + sigma * cuts) / rest))
    # Runs of points sorted by (T, x) share the trapezoid nodes k h on
    # [0, T_run]; the sort keeps T_run close to each point's own cut and
    # each value independent of the order of the input points.  h = 2^-p
    # makes every node exact in binary, and each halving adds only the odd
    # nodes.  The sums are scaled by e^x, so that nothing underflows.
    order = np.lexsort((rest, cuts))
    sums = np.empty((rest.size, 3))
    # cosh(sigma t) leaves the float range where sigma t > 710: the sums are
    # then not finite and fail the stopping rules below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(order), _BESSEL_RUN):
            open_ = order[start:start + _BESSEL_RUN]
            xs_open = rest[open_]
            h = 2.0 * _bessel_step(nu, float(xs_open.max()))
            n = max(1, math.ceil(cuts[open_[-1]] / h))
            est = h * _bessel_sums(nu, xs_open, h * np.arange(n + 1.0))
            # Each point stops on its own rule; only open points are refined.
            for level in range(4):
                h, n = 0.5 * h, 2 * n
                finer = 0.5 * est + h * _bessel_sums(nu, xs_open, h * np.arange(1.0, n, 2.0))
                err = np.hypot(finer[:, 0] - est[:, 0], finer[:, 1] - est[:, 1])
                tol, mass = SPECIAL_RTOL * np.hypot(finer[:, 0], finer[:, 1]), finer[:, 2]
                # step h is about err^2 / M off, M = K_sigma, unless at the floor
                done = (err <= tol if level else
                        (err * err <= tol * mass) & (_BESSEL_ROUNDING_FLOOR * mass <= tol))
                sums[open_[done]] = finer[done]
                open_, xs_open, est, err = open_[~done], xs_open[~done], finer[~done], err[~done]
                if not open_.size:
                    break
            # Near a zero of K_nu the value is far below the integrand's L1 mass,
            # which K_sigma(x) bounds since |cosh(nu t)| <= cosh(sigma t); the
            # halvings then agree only to rounding noise of that mass.
            ok = err <= _BESSEL_ROUNDING_FLOOR * est[:, 2]
            if not ok.all():
                i = int(np.argmin(ok))
                if not np.isfinite(est[i]).all():
                    raise ConvergenceError(
                        f"bessel_k integrand cosh(nu t) exp(-x cosh t) is beyond the float "
                        f"range at nu={nu}, x={xs_open[i]}")
                scale = math.exp(-xs_open[i])
                raise ConvergenceError("bessel_k quadrature did not converge",
                                       best_estimate=complex(est[i, 0], est[i, 1]) * scale,
                                       achieved_error=float(err[i]) * scale)
            sums[open_] = est
    scale = np.exp(-rest)
    out[~small] = (sums[:, 0] + 1j * sums[:, 1]) * scale
    masses[~small] = sums[:, 2] * scale
    return out, masses


def bessel_k(nu: complex, x: float) -> complex:
    """K_nu(x) for x > 0 and complex order nu, from the cosh integral.

    The one-point case of ``bessel_k_many``.  The integrand
    exp(-x cosh t) cosh(nu t) is even in t and analytic in |Im t| < pi/2,
    so the trapezoidal rule on [0, T], t = 0 at half weight, converges
    geometrically.  T leaves the discarded tail 45 e-folds below the
    integrand's peak.  The first step 2^-p resolves both the oscillation
    of cos(t Im nu) and the peak's curvature; its even nodes are the rule
    at step 2h, and each of up to three halvings adds only the new odd
    nodes.  Symmetry in nu and conjugation symmetry hold by construction.

    K_sigma(x), sigma = |Re nu|, bounds the L1 mass M of the integrand.
    Step h is about d^2 / M off, d its distance from step 2h, and is
    returned when that is at most 1e-12 |K| and so is 8 ulps M.  Otherwise
    two halvings must agree to 1e-12 relative, or, after the last, to
    8 ulps of M: the rounding floor near zeros of K_nu, and at large
    |Im nu|, where |K_nu| ~ e^(-pi |Im nu| / 2) M.  The error is at most
    max(1e-12 |K_nu(x)|, 8 ulps K_sigma(x)), and the relative accuracy is
    limited by the conditioning K_sigma(x) / |K_nu(x)|.  Raises
    ConvergenceError when no rule holds, and where cosh(sigma t) leaves
    the float range before T, sigma T > 710: at large sigma and small x,
    K_40 below x of about 6e-6 and K_100 below about 0.4, although K_nu(x)
    itself is finite there.
    """
    return complex(_bessel_k_array(complex(nu), np.array([float(x)]))[0][0])


def bessel_k_many(nu: complex, xs: Sequence[float]) -> np.ndarray:
    """Vector of K_nu over positive abscissas, with the rules of ``bessel_k``.

    Abscissas below 1e-8 take the small-x closed form, within 3e-15
    relative of mpmath at every order (Temme's form near nu = 0; near a
    nonzero integer order the cancelling pair of terms is dropped inside a
    window sized from its error), or near zeros of K_nu to ulps of
    K_sigma(x).  The rest are sorted by truncation point and integrated in
    runs of at most 256 points that share the trapezoid nodes, one matrix
    product per level; a run's nodes reach its longest cut at the step of
    its largest x, so a value agrees with ``bessel_k`` to rounding of
    K_sigma(x) and does not depend on the order of ``xs``.  Each point stops
    at step h where d^2 / K_sigma and 8 ulps K_sigma are at most 1e-12 |K_nu|,
    else after halvings: within max(1e-12 |K_nu|, 8 ulps K_sigma).  Raises
    DomainError when any abscissa is not positive, and ConvergenceError
    when a value is beyond the float range.
    """
    return _bessel_k_array(complex(nu), np.asarray(xs, dtype=float))[0]


def weber_schafheitlin_rhs(nu: complex, mu: complex, rho: complex) -> complex:
    """Closed form of int_0^inf K_nu(r) K_mu(r) r^(-rho) dr.

    Equals the product of the four Gammas of (1 +- nu +- mu - rho)/2
    divided by 2^(rho+2) * Gamma(1-rho); requires Re(1 +- nu +- mu - rho)
    to be positive for all four sign choices.
    """
    nu, mu, rho = complex(nu), complex(mu), complex(rho)
    args = [(1.0 + snu * nu + smu * mu - rho) / 2.0 for snu in (1.0, -1.0) for smu in (1.0, -1.0)]
    if any(arg.real <= 0 for arg in args):
        raise DomainError("moment integral undefined: Re(1 +- nu +- mu - rho) must be positive")
    return gamma_ratio(args, (1.0 - rho,)) / 2.0 ** (rho + 2.0)


def bessel_product_moment(nu: complex, mu: complex, power: complex,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Quadrature of int_0^inf K_nu(r) K_mu(r) r^power dr.

    Runs in the log variable r = e^v, which turns the algebraic endpoint
    behaviour r^(power - |Re nu| - |Re mu|) into clean exponential decay.
    The integrand is formed as (r^a K_nu)(r^b K_mu) r^(power + 1 - a - b),
    a = |Re nu|, b = |Re mu|, with r^a K_nu from its small-x form in v where
    r < 1e-8, so that neither K_nu^2 nor r leaves the float range when the
    decay is slow.  This is the independent oracle for
    ``weber_schafheitlin_rhs`` (with power = -rho) and for every L^2 norm
    built on Bessel kernels: ``_kernel_integral``, bisected up to three
    times.  Raises ConvergenceError when the grid or a bisection needs more
    than ``max_panels`` panels (a decay at r = 0 too slow for the budget),
    when three bisections do not meet the tolerance, and when the K_nu
    kernels' rounding floor, 8 ulps (K_a |K_mu| + |K_nu| K_b) integrated
    against r^power, exceeds ``spec.relative_tolerance`` times the integral
    of |integrand|: at large |Im nu|, where |K_nu| ~ e^(-pi |Im nu| / 2) K_a,
    the kernels carry too few digits.
    """
    return _kernel_integral(complex(nu), complex(mu), complex(power), 0.0, 0.0, None, spec, 3,
                            "bessel moment quadrature", 1.0)
