"""Independent reference values for the benchmark's correctness checks.

Two kinds of reference live here, both computed outside every timed
region:

* mpmath at 30 significant digits (more where an argument sits close to
  a branch point) for the closed forms: the cosh * 2F1 form of phi_s,
  the Harish-Chandra c-function, the Gamma form of the cb multiplier
  norm, K_nu, and the Gamma form of the Weber-Schafheitlin moment.
  mpmath is optional; without it ``available()`` is False and every
  accuracy figure is reported as missing rather than taken from another
  reference.
* exact closed forms for homogeneous trees, written here from the
  recurrence chi_1 * chi_n = chi_(n+1) + q chi_(n-1) (q + 1 in place of q
  at n = 1), together with a small reduced-word implementation that is
  independent of ``sphmult.tree``.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    import mpmath
except ImportError:  # the accuracy columns are then reported as missing
    mpmath = None

DPS = 30
DIGITS_CAP = 16.0


def available() -> bool:
    return mpmath is not None


def version() -> str | None:
    return None if mpmath is None else mpmath.__version__


def digits(value, ref, envelope) -> float:
    """-log10(|value - ref| / envelope), capped at DIGITS_CAP."""
    with mpmath.workdps(DPS):
        err = abs(mpmath.mpc(complex(value)) - mpmath.mpc(ref))
        if err == 0:
            return DIGITS_CAP
        scale = abs(envelope)
        if scale == 0:
            return 0.0
        return min(DIGITS_CAP, float(-mpmath.log10(err / scale)))


def _dps_for_radius(r: float) -> int:
    # 1 - tanh(r)^2 ~ 4 e^(-2r): keep DPS digits of it.
    return DPS + int(0.87 * abs(r)) + 5


def _phi_raw(m: int, m0: int, s, r):
    a = mpmath.mpf(m) / 4 - s / 2
    b = mpmath.mpf(m0) / 4 - s / 2
    c = mpmath.mpf(m + m0) / 4
    rr = mpmath.mpf(abs(r))
    return mpmath.cosh(rr) ** (s - mpmath.mpf(m) / 2) * mpmath.hyp2f1(
        a, b, c, mpmath.tanh(rr) ** 2
    )


def phi(m: int, m0: int, s: complex, r: float):
    """(phi_s(a_r), envelope phi_(Re s)(a_r)) for the group with (m, m0)."""
    s = complex(s)
    if s.real < 0:
        s = -s
    with mpmath.workdps(_dps_for_radius(r)):
        value = _phi_raw(m, m0, mpmath.mpc(s), r)
        envelope = _phi_raw(m, m0, mpmath.mpf(s.real), r)
        return +value, +envelope


def c_function(m: int, m0: int, s: complex):
    with mpmath.workdps(DPS):
        s = mpmath.mpc(complex(s))
        return (
            mpmath.mpf(2) ** (mpmath.mpf(m) / 2 - s)
            * mpmath.gamma(mpmath.mpf(m + m0) / 4)
            * mpmath.gamma(s)
            / (mpmath.gamma(mpmath.mpf(m) / 4 + s / 2) * mpmath.gamma(mpmath.mpf(m0) / 4 + s / 2))
        )


def phi_asymptotic(m: int, m0: int, s: complex, r: float):
    with mpmath.workdps(DPS):
        s_mp = mpmath.mpc(complex(s))
        return c_function(m, m0, s) * mpmath.exp((s_mp - mpmath.mpf(m) / 2) * r)


def strip_position(m: int, s: complex) -> str:
    """'interior', 'boundary_constant' or 'not_multiplier' for |Re s| vs m/2."""
    sigma, t = complex(s).real, complex(s).imag
    if abs(sigma) < m / 2:
        return "interior"
    if abs(sigma) == m / 2 and t == 0:
        return "boundary_constant"
    return "not_multiplier"


def cb_norm(m: int, s: complex):
    """Gamma form of the cb multiplier norm on SO0(1, m+1), s interior."""
    with mpmath.workdps(DPS):
        s = mpmath.mpc(complex(s))
        half = mpmath.mpf(m) / 2
        sigma, t = s.real, s.imag
        num = (
            mpmath.gamma(half + sigma)
            * mpmath.gamma(half - sigma)
            * abs(mpmath.gamma(mpmath.mpc(half, t))) ** 2
        )
        den = mpmath.gamma(half) ** 2 * abs(mpmath.gamma(half + s) * mpmath.gamma(half - s))
        return num / den


def hyp2f1(a, b, c, z, w=None):
    """2F1(a, b; c; z); when ``w`` is given the argument is 1 - w exactly."""
    extra = 0 if w is None or w == 0 else max(0, int(-math.log10(abs(w))))
    with mpmath.workdps(DPS + extra + 5):
        zz = 1 - mpmath.mpc(complex(w)) if w is not None else mpmath.mpc(complex(z))
        value = mpmath.hyp2f1(
            mpmath.mpc(complex(a)), mpmath.mpc(complex(b)), mpmath.mpc(complex(c)), zz
        )
        return +value


def besselk(nu: complex, x: float):
    """(K_nu(x), envelope K_(Re nu)(x))."""
    with mpmath.workdps(DPS):
        value = mpmath.besselk(mpmath.mpc(complex(nu)), mpmath.mpf(x))
        envelope = mpmath.besselk(mpmath.mpf(abs(complex(nu).real)), mpmath.mpf(x))
        return value, envelope


def bessel_vector(m: int, s: complex, x: float):
    """(c_m 2^(1-m/2) / G(m/2 + s) K_s(x), the same factor times K_(Re s)(x))."""
    k, envelope = besselk(s, x)
    with mpmath.workdps(DPS):
        half = mpmath.mpf(m) / 2
        c_m = mpmath.sqrt(mpmath.gamma(m) / (mpmath.pi ** half * mpmath.gamma(half)))
        scale = c_m * mpmath.mpf(2) ** (1 - half) / mpmath.gamma(half + mpmath.mpc(complex(s)))
        return scale * k, abs(scale) * envelope


def weber_schafheitlin(nu: complex, mu: complex, rho: float):
    """int_0^inf K_nu K_mu r^(-rho) dr in its four-Gamma closed form."""
    with mpmath.workdps(DPS):
        nu, mu, rho = mpmath.mpc(complex(nu)), mpmath.mpc(complex(mu)), mpmath.mpc(complex(rho))
        prod = mpmath.mpc(1)
        for snu in (1, -1):
            for smu in (1, -1):
                prod *= mpmath.gamma((1 + snu * nu + smu * mu - rho) / 2)
        return prod / (mpmath.mpf(2) ** (rho + 2) * mpmath.gamma(1 - rho))


def gamma(z: complex):
    with mpmath.workdps(DPS):
        return mpmath.gamma(mpmath.mpc(complex(z)))


# ---------------------------------------------------------------------------
# Homogeneous trees: exact closed forms and an independent word model.


def tree_q(involutive: int, free: int) -> int:
    return involutive + 2 * free - 1


def sphere_size(q: int, n: int) -> int:
    return 1 if n == 0 else (q + 1) * q ** (n - 1)


def _times_chi1(q: int, coeffs: dict) -> dict:
    """chi_1 * (sum_k c_k chi_k) in the basis of shell indicators."""
    out: dict = {}
    for k, c in coeffs.items():
        if k == 0:
            out[1] = out.get(1, 0) + c
            continue
        out[k + 1] = out.get(k + 1, 0) + c
        out[k - 1] = out.get(k - 1, 0) + (q + 1 if k == 1 else q) * c
    return out


def convolution(q: int, i: int, j: int) -> dict:
    """Shell values of chi_i * chi_j, from the three-term recurrence."""
    prev = {j: 1}  # chi_0 * chi_j
    if i == 0:
        return prev
    cur = _times_chi1(q, prev)  # chi_1 * chi_j
    for n in range(1, i):
        # chi_(n+1) = chi_1 * chi_n - (q+1 if n == 1 else q) chi_(n-1)
        nxt = _times_chi1(q, cur)
        factor = q + 1 if n == 1 else q
        for k, c in prev.items():
            nxt[k] = nxt.get(k, 0) - factor * c
        prev, cur = cur, nxt
    return {k: c for k, c in sorted(cur.items()) if c != 0}


def multiplicative_shell(q: int, alpha, max_shell: int) -> list:
    """phi(0..max_shell) with phi(1) = alpha and <chi_1 * chi_n, phi> multiplicative.

    <chi_k, phi> = |E_k| phi(k); with the recurrence this gives
    |E_(n+1)| phi(n+1) = |E_1| alpha |E_n| phi(n) - c_n |E_(n-1)| phi(n-1),
    c_1 = q + 1 and c_n = q otherwise.
    """
    values = [Fraction(1), Fraction(alpha)]
    for n in range(1, max_shell):
        factor = q + 1 if n == 1 else q
        lead = sphere_size(q, 1) * values[1] * sphere_size(q, n) * values[n]
        lead -= factor * sphere_size(q, n - 1) * values[n - 1]
        values.append(lead / sphere_size(q, n + 1))
    return values[: max_shell + 1]


def _cancels(involutive: int, a, b) -> bool:
    return a[0] == b[0] and (a[0] < involutive or a[1] == -b[1])


def reduce_letters(involutive: int, letters) -> tuple:
    out: list = []
    for letter in letters:
        if out and _cancels(involutive, out[-1], letter):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_letters(involutive: int, letters) -> tuple:
    return tuple((f, 1 if f < involutive else -e) for f, e in reversed(letters))


def ball(involutive: int, free: int, radius: int) -> list[list[tuple]]:
    """Reduced words of length 0..radius, shell by shell, by breadth-first search."""
    gens = [(f, 1) for f in range(involutive)]
    for f in range(involutive, involutive + free):
        gens += [(f, 1), (f, -1)]
    shells = [[()]]
    for n in range(radius):
        nxt = set()
        for w in shells[-1]:
            for g in gens:
                v = reduce_letters(involutive, w + (g,))
                if len(v) == n + 1:
                    nxt.add(v)
        shells.append(sorted(nxt))
    return shells
