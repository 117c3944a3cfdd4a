"""Concrete Lorentz matrices, the sphere action, and coefficient quadratures.

The group SO0(1, n) is realized as real (n+1) x (n+1) matrices g with
g^T J g = J (J = diag(-1, 1, ..., 1)), det g = 1 and g_00 >= 1.  Its
action on rays of the forward light cone induces an action on the unit
sphere S^m (m = n - 1), with the multiplicative cocycle

    r(g, zeta) = log(g_00 + sum_q g_0q zeta_q),

and the sphere representation

    (rho_s(g) f)(zeta) = e^(-(m/2+s) r(g^-1, zeta)) f(g^-1 zeta)

whose coefficient against the constant function is the spherical
function.  Everything here is kept independent of the hypergeometric
route so the two can be used as cross-checks of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantError
from .groups import as_spectral
from .quadrature import (DEFAULT_SPEC, QuadratureSpec, _embedded_weights, _gauss_legendre,
                         composite, oscillation_edges)
from .specfun import _kernel_integral, bessel_k_many, rgamma
from .spherical import _c_m, _open_strip

_MATRIX_TOL = 1e-10


def _j_form(size: int) -> np.ndarray:
    j = np.eye(size)
    j[0, 0] = -1.0
    return j


@dataclass(frozen=True)
class LorentzMatrix:
    """Validated element of SO0(1, n); ``entries`` is (n+1) x (n+1)."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0] - 1

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        return lorentz_matrix(self.entries @ other.entries)


def lorentz_matrix(entries: np.ndarray) -> LorentzMatrix:
    """Wrap and validate a matrix as an element of SO0(1, n)."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 3:
        raise InvariantError("expected a square matrix of size at least 3")
    j = _j_form(arr.shape[0])
    if np.max(np.abs(arr.T @ j @ arr - j)) > _MATRIX_TOL:
        raise InvariantError("matrix does not preserve the Lorentz form")
    if abs(np.linalg.det(arr) - 1.0) > _MATRIX_TOL:
        raise InvariantError("matrix determinant is not 1")
    if arr[0, 0] < 1.0 - 1e-12:
        raise InvariantError("matrix is not in the identity component")
    return LorentzMatrix(entries=arr)


def boost_generator(n: int) -> np.ndarray:
    """Generator H of the one-parameter boost subgroup: a_r = exp(r H)."""
    h = np.zeros((n + 1, n + 1))
    h[0, 1] = h[1, 0] = 1.0
    return h


def make_a(r: float, n: int) -> LorentzMatrix:
    """Boost a_r along the first spatial axis; r -> a_r is a homomorphism."""
    if n < 2:
        raise DomainError("make_a requires n >= 2")
    arr = np.eye(n + 1)
    ch, sh = math.cosh(r), math.sinh(r)
    arr[0, 0] = arr[1, 1] = ch
    arr[0, 1] = arr[1, 0] = sh
    return LorentzMatrix(entries=arr)


def make_n(x) -> LorentzMatrix:
    """Horospherical translation n_x for x in R^m (so the matrix is m+2 square)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = x.shape[0]
    if m < 1:
        raise DomainError("make_n requires at least one coordinate")
    half_sq = 0.5 * float(x @ x)
    size = m + 2
    arr = np.eye(size)
    arr[0, 0] = 1.0 + half_sq
    arr[0, 1] = -half_sq
    arr[1, 0] = half_sq
    arr[1, 1] = 1.0 - half_sq
    arr[0, 2:] = x
    arr[1, 2:] = x
    arr[2:, 0] = x
    arr[2:, 1] = -x
    return LorentzMatrix(entries=arr)


def lorentz_inverse(g: LorentzMatrix) -> LorentzMatrix:
    """g^-1 = J g^T J, without matrix inversion."""
    j = _j_form(g.entries.shape[0])
    return lorentz_matrix(j @ g.entries.T @ j)


def _check_sphere_point(zeta, n: int) -> np.ndarray:
    z = np.asarray(zeta, dtype=float)
    if z.shape != (n,):
        raise DomainError(f"sphere point must have {n} coordinates")
    if abs(float(z @ z) - 1.0) > 1e-12:
        raise InvariantError("sphere point is not normalized")
    return z


def act_on_sphere(g: LorentzMatrix, zeta) -> np.ndarray:
    """Projective action of g on S^m via the light-cone lift (1, zeta)."""
    z = _check_sphere_point(zeta, g.n)
    lifted = g.entries @ np.concatenate(([1.0], z))
    out = lifted[1:] / lifted[0]
    return out / np.linalg.norm(out)


def cocycle_r(g: LorentzMatrix, zeta) -> float:
    """log of the 0-component of the light-cone lift: r(g, zeta)."""
    z = _check_sphere_point(zeta, g.n)
    return math.log(g.entries[0, 0] + float(g.entries[0, 1:] @ z))


_BASE_POINT_TOL = 1e-12


def stereographic(zeta) -> np.ndarray:
    """Stereographic projection of S^m \\ {e1} onto R^m from e1."""
    z = np.asarray(zeta, dtype=float)
    if abs(z[0] - 1.0) < _BASE_POINT_TOL:
        raise DomainError("stereographic projection undefined at the base point")
    return z[1:] / (1.0 - z[0])


def inverse_stereographic(x) -> np.ndarray:
    """Inverse projection; maps 0 to the antipode of the base point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nx2 = float(x @ x)
    return np.concatenate(([nx2 - 1.0], 2.0 * x)) / (nx2 + 1.0)


# ---------------------------------------------------------------------------
# Sphere quadrature (normalized measure) and the representation coefficient.


def sphere_quadrature(m: int, f, n_nodes: int = 512) -> complex:
    """Integral of f over S^m against the normalized measure.

    m = 1 uses the trapezoid rule on the circle (spectrally accurate for
    smooth integrands); m = 2 a Gauss-Legendre x trapezoid product grid.
    ``f`` receives an (N, m+1) array of sphere points and must return N
    values.
    """
    return _sphere_rule(m, f, n_nodes)[0]


def _sphere_rule(m: int, f, n_nodes: int) -> tuple[complex, float]:
    """``sphere_quadrature`` and an error estimate from its own nodes: its
    distance from the rules on the even-index angles and, on S^2, on the
    even-index Gauss-Legendre nodes, plus eps times the integral of |f|."""
    angles = np.linspace(0.0, 2.0 * math.pi, n_nodes, endpoint=False)
    if m == 1:
        wu = embedded = np.full(1, 2.0)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    elif m == 2:
        (us, wu), embedded = _gauss_legendre(n_nodes), _embedded_weights(n_nodes)
        uu, pp = np.repeat(us, n_nodes), np.tile(angles, n_nodes)
        sin_t = np.sqrt(1.0 - uu * uu)
        pts = np.stack([uu, sin_t * np.cos(pp), sin_t * np.sin(pp)], axis=1)
    else:
        raise DomainError("sphere quadrature supports m in {1, 2}")
    vals = np.asarray(f(pts), dtype=complex).reshape(wu.size, n_nodes)
    rows = vals.mean(axis=1)
    value = complex(wu @ rows / 2.0)
    err = (abs(wu @ vals[:, ::2].mean(axis=1) / 2.0 - value) + abs(embedded @ rows / 2.0 - value)
           + np.finfo(float).eps * float(wu @ np.abs(vals).mean(axis=1)) / 2.0)
    return value, err


def phi_via_rho(n: int, s, g: LorentzMatrix,
                spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Coefficient <rho_s(g) 1, 1> by sphere quadrature, for n in {2, 3}.

    This is the representation-theoretic route to phi_s and serves as the
    cross-module oracle for the hypergeometric evaluation.  A grid is
    accepted on its own error estimate; raises ConvergenceError when six
    node doublings do not meet the tolerance.
    """
    if n not in (2, 3):
        raise DomainError("phi_via_rho supports n in {2, 3}")
    if g.n != n:
        raise DomainError("matrix size does not match n")
    m = n - 1
    sc = complex(as_spectral(s).value)
    ginv = lorentz_inverse(g).entries
    row0 = ginv[0, 1:]
    g00 = ginv[0, 0]
    expo = -(m / 2.0 + sc)

    def integrand(pts):
        w0 = g00 + pts @ row0
        return np.exp(expo * np.log(w0))

    nodes = 128 if m == 1 else 48
    for k in range(7):
        value, err = _sphere_rule(m, integrand, nodes * 2**k)
        if err <= spec.relative_tolerance * max(abs(value), spec.absolute_tolerance):
            return value
    raise ConvergenceError("phi_via_rho sphere quadrature did not converge",
                           best_estimate=value, achieved_error=err)


# ---------------------------------------------------------------------------
# Fourier transform of the sphere vector (the K-Bessel identity check).


def fhat_check(m: int, s, y_norm: float) -> tuple[complex, complex]:
    """Two independent evaluations of the transformed kernel vector.

    Returns the pair (direct Fourier quadrature of
    c_1 (x^2+1)^(-s-1/2), closed form with K_s); only m = 1 is supported,
    in the absolutely convergent regime Re(s) > 0.

    The direct side integrates by parts three times past the truncation
    point, so the slowly decaying oscillatory tail is captured
    analytically.
    """
    if m != 1:
        raise DomainError("fhat_check supports m = 1 only")
    sc = complex(as_spectral(s).value)
    if sc.real <= 0:
        raise DomainError("fhat_check requires Re(s) > 0")
    y = float(y_norm)
    if y <= 0:
        raise DomainError("fhat_check requires y_norm > 0")
    c1 = 1.0 / math.sqrt(math.pi)
    a = sc + 0.5

    def f(x):
        return (x * x + 1.0) ** (-a)

    def f1(x):
        return -2.0 * a * x * (x * x + 1.0) ** (-a - 1.0)

    def f2(x):
        return (-2.0 * a) * (x * x + 1.0) ** (-a - 1.0) + 4.0 * a * (a + 1.0) * x * x * (
            x * x + 1.0
        ) ** (-a - 2.0)

    def f3(x):
        return 12.0 * a * (a + 1.0) * x * (x * x + 1.0) ** (-a - 2.0) - 8.0 * a * (
            a + 1.0
        ) * (a + 2.0) * x**3 * (x * x + 1.0) ** (-a - 3.0)

    # Truncation: the first neglected integration-by-parts term behaves
    # like f(X) ((2|a|+4)/(X y))^4 / y; grow X until it is negligible.
    x_max = 64.0
    while x_max < 2.0**22:
        head = abs(f(x_max)) * ((2.0 * abs(a) + 4.0) / (x_max * y)) ** 4 / y
        if head < 1e-10:
            break
        x_max *= 2.0
    edges = oscillation_edges(0.0, x_max, y, base_width=1.0)
    body = composite(lambda x: f(x) * np.cos(y * x), edges)[0]
    sin_xy, cos_xy = math.sin(y * x_max), math.cos(y * x_max)
    tail = (
        -f(x_max) * sin_xy / y
        - f1(x_max) * cos_xy / y**2
        + f2(x_max) * sin_xy / y**3
        + f3(x_max) * cos_xy / y**4
    )
    direct = c1 / math.sqrt(2.0 * math.pi) * 2.0 * (body + tail)

    closed = (c1 * 2.0 ** (1.0 - m / 2.0) * rgamma(m / 2.0 + sc) * (y / 2.0) ** sc
              * complex(bessel_k_many(sc, [y])[0]))
    return direct, closed


# ---------------------------------------------------------------------------
# The Bessel-kernel coefficient pairing (independent route to phi on NA).


def coefficient_pairing(m: int, s, r: float, y: float,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """<pi(a_r n_y) v_s, v_(-conj(s))> by direct quadrature, m = 1.

    v_s is the Bessel kernel vector; the solvable-group action sends
    f(x) to e^(mr/2) e^(-i y e^r x) f(e^r x).  Cross-checks phi_on_na,
    which carries the same content through a prefactor formula.  The
    integral is ``specfun._kernel_integral`` of phi_on_na's parameters with
    the wave cos, without bisection, so it holds up to the strip edge and
    raises ConvergenceError, with the estimate in the units of the value,
    on the same panel budget and rounding floor.
    """
    if m != 1:
        raise DomainError("coefficient_pairing supports m = 1 only")
    sc = _open_strip(m, s, "coefficient_pairing")
    r = float(r)
    lam = math.exp(r) * abs(float(y))
    coeff_left = _c_m(m) * 2.0 ** (1.0 - m / 2.0) * rgamma(m / 2.0 + sc)
    coeff_right = _c_m(m) * 2.0 ** (1.0 - m / 2.0) * rgamma(m / 2.0 - sc.conjugate())
    scale = 2.0 * math.exp(m * r / 2.0) * coeff_left * coeff_right.conjugate()
    # K_s(e^r x) against conj K_(-conj s)(x) = K_s(x)
    return _kernel_integral(sc, sc, complex(m - 1.0), r, lam, np.cos, spec, 0,
                            "coefficient pairing quadrature", scale)
