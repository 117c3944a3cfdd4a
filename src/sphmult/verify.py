"""Cross-validation suite: every closed form against an independent route.

Each check compares a closed-form identity with a quadrature,
enumeration, or second closed form, and reports the achieved error
against a fixed tolerance.  The suite is what ``sphmult verify`` runs;
its JSON report is the machine-checkable record (one entry per check:
id, anchor, achieved error, tolerance, pass flag).

``gamma_perturbation`` multiplies the Gamma values used by the Gamma
identity checks by (1 + eps).  It exists so the suite's sensitivity can
be demonstrated: a 1e-6 perturbation must surface as a named
duplication-check failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import groups, lorentz, specfun, spherical, tree
from .quadrature import QuadratureSpec, integrate


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    achieved_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.achieved_error <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "achieved_error": self.achieved_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _gamma_grid(rng, count=40):
    re = rng.uniform(0.1, 5.0, count)
    im = rng.uniform(-5.0, 5.0, count)
    return [complex(a, b) for a, b in zip(re, im)]


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_gamma_duplication(gam) -> float:
    rng = np.random.default_rng(11)
    worst = 0.0
    for z in _gamma_grid(rng):
        lhs = gam(2 * z)
        rhs = 2 ** (2 * z - 1) / math.sqrt(math.pi) * gam(z) * gam(z + 0.5)
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _check_gamma_recurrence(gam) -> float:
    rng = np.random.default_rng(12)
    return max(_rel(gam(z + 1), z * gam(z)) for z in _gamma_grid(rng))


def _check_gamma_conjugation(gam) -> float:
    rng = np.random.default_rng(13)
    return max(
        _rel(gam(z.conjugate()), gam(z).conjugate()) for z in _gamma_grid(rng)
    )


def _check_gamma_reflection(gam) -> float:
    rng = np.random.default_rng(14)
    worst = 0.0
    for z in _gamma_grid(rng):
        lhs = gam(z) * gam(1 - z)
        rhs = math.pi / np.sin(math.pi * np.complex128(z))
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _check_beta_integral(_gam) -> float:
    spec = QuadratureSpec(1e-10, 1e-15, 40000)
    worst = 0.0
    for a, b in ((1.3 + 0.4j, 2.2), (1.0, 1.0), (0.9, 1.7 - 0.3j)):
        oracle = integrate(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, 1.0, spec)
        worst = max(worst, _rel(specfun.beta(a, b), oracle))
    return worst


def _check_hyp2f1_log_form(_gam) -> float:
    worst = 0.0
    for z in (0.5, -0.8, 0.2, 0.85):
        worst = max(
            worst,
            _rel(specfun.hyp2f1(1, 1, 2, z), -math.log1p(-z) / z),
        )
    return worst


def _check_hyp2f1_gauss_limit(_gam) -> float:
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(5):
        a = complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(0.1, 1.0), -a.imag + rng.uniform(-0.3, 0.3))
        c = a + b + complex(rng.uniform(0.6, 2.0), rng.uniform(-0.2, 0.2))
        near = specfun.hyp2f1(a, b, c, 1.0 - 1e-13)
        exact = specfun.gauss_value(a, b, c)
        worst = max(worst, _rel(near, exact))
    return worst


def _check_bessel_symmetry(_gam) -> float:
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(10):
        nu = complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.0, 2.0))
        x = rng.uniform(0.05, 6.0)
        worst = max(worst, _rel(specfun.bessel_k(nu, x), specfun.bessel_k(-nu, x)))
    return worst


def _check_bessel_conjugation(_gam) -> float:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        nu = complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.0, 2.0))
        x = rng.uniform(0.05, 6.0)
        worst = max(
            worst,
            _rel(
                specfun.bessel_k(nu, x).conjugate(),
                specfun.bessel_k(nu.conjugate(), x),
            ),
        )
    return worst


def _check_bessel_half_integer(_gam) -> float:
    worst = 0.0
    for x in (0.3, 1.0, 2.5, 7.0):
        closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        worst = max(worst, _rel(specfun.bessel_k(0.5, x), closed))
    return worst


def _check_weber_schafheitlin(_gam) -> float:
    cases = [
        (0.0, 0.0, 0.0),
        (0.3 + 0.5j, 0.2 - 0.4j, 0.3),
        (0.35 + 0.8j, 0.35 - 0.8j, -1.0),
        (-0.25 + 0.3j, 0.4 + 0.1j, 0.15),
    ]
    worst = 0.0
    for nu, mu, rho in cases:
        lhs = specfun.bessel_product_moment(nu, mu, -rho)
        rhs = specfun.weber_schafheitlin_rhs(nu, mu, rho)
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _check_triple_agreement(_gam) -> float:
    worst = 0.0
    spec = QuadratureSpec(1e-10, 1e-16, 40000)
    for m in (1, 2):
        group = groups.params_for("so0", m + 1)
        for s in (0.2 + 0.6j, -0.3 + 1.1j):
            for r in (0.5, 2.0):
                stable = complex(spherical.phi(group, s, r))
                quad = spherical.phi_lorentz_integral(m, s, r, spec)
                second = spherical.phi_lorentz_hyp2(m, s, r)
                worst = max(worst, _rel(stable, quad), _rel(stable, second))
    return worst


def _check_norm_vs_l1(_gam) -> float:
    worst = 0.0
    for m, s in ((1, 0.3 + 0.9j), (2, 0.5 + 0.6j)):
        closed = spherical.cb_norm_lorentz(m, s)
        quad = spherical.multiplier_l1_norm(m, s)
        worst = max(worst, _rel(closed, quad))
    return worst


def _check_axis_normalization(_gam) -> float:
    worst = 0.0
    for m in (1, 2):
        worst = max(worst, abs(spherical.cb_norm_lorentz(m, 0.37j * m) - 1.0))
        worst = max(worst, abs(spherical.cb_norm_lorentz(m, 0.31 * m) - 1.0))
        worst = max(worst, abs(spherical.cb_norm_lorentz(m, m / 2.0) - 1.0))
    return worst


def _check_c_normalization(_gam) -> float:
    worst = 0.0
    for family, n in (("so0", 2), ("so0", 3), ("su", 2)):
        group = groups.params_for(family, n)
        worst = max(worst, abs(spherical.c_function(group, group.m / 2.0) - 1.0))
    return worst


def _check_asymptotic_handoff(_gam) -> float:
    worst = 0.0
    r = 20.0
    for m in (1, 2):
        group = groups.params_for("so0", m + 1)
        s = 0.35 * m + 0.8j
        val = complex(spherical.phi(group, s, r))
        scaled = val * np.exp((m / 2.0 - np.complex128(s)) * r)
        worst = max(worst, abs(scaled - spherical.c_function(group, s)))
    return worst


def _check_fourier_pair(_gam) -> float:
    direct, closed = lorentz.fhat_check(1, 0.4 + 0.6j, 1.0)
    return _rel(direct, closed)


def _check_representation_coefficient(_gam) -> float:
    group = groups.params_for("so0", 2)
    worst = 0.0
    for s, r in ((0.3 + 0.6j, 1.2), (0.1 - 0.9j, 0.4)):
        via_rho = lorentz.phi_via_rho(2, s, lorentz.make_a(r, 2))
        direct = complex(spherical.phi(group, s, r))
        worst = max(worst, _rel(via_rho, direct))
    return worst


def _check_stereographic_isometry(_gam) -> float:
    # |h|^2 over the circle equals the plane integral with the conformal
    # Jacobian (2 / (x^2+1)).
    def h_sphere(pts):
        return (pts[:, 0] + 2.0 * pts[:, 1] ** 2).astype(complex)

    lhs = lorentz.sphere_quadrature(1, lambda p: np.abs(h_sphere(p)) ** 2, 2048)

    def h_plane(xs):
        pts = np.stack(
            [(xs**2 - 1.0) / (xs**2 + 1.0), 2.0 * xs / (xs**2 + 1.0)], axis=1
        )
        return np.abs(h_sphere(pts)) ** 2 * (2.0 / (xs**2 + 1.0))

    spec = QuadratureSpec(1e-10, 1e-14, 40000)
    body = integrate(h_plane, -1.0, 1.0, spec)
    # |x| > 1 in the inverted chart u = 1/x (the integrand only decays
    # like 1/x^2, so plain truncation would dominate the error).
    tails = integrate(lambda us: (h_plane(1.0 / us) + h_plane(-1.0 / us)) / us**2,
                      0.0, 1.0, spec)
    rhs = (body + tails) / (2.0 * math.pi)
    return _rel(lhs, rhs)


def _check_cesaro(_gam) -> float:
    phi_map = lambda rs: 3.0 * np.exp(-2j * rs) + np.exp(-rs)
    at2 = spherical.cesaro_extract(phi_map, 2.0, 4000)
    at1 = spherical.cesaro_extract(phi_map, 1.0, 4000)
    return max(abs(at2 - 3.0), abs(at1))


def _check_tree_suite(_gam) -> float:
    ok = True
    for m_fac, n_fac in ((3, 0), (0, 2), (1, 1)):
        spec = tree.FreeProductSpec(m_fac, n_fac)
        shells = tree.spheres(spec, 6)
        ok &= all(
            len(shells[n]) == tree.sphere_size(spec, n) for n in range(7)
        )
        for i in (1, 2):
            for j in (1, 2):
                ok &= tree.radial_convolve(
                    tree.shell_indicator(i), tree.shell_indicator(j), spec
                ) == tree.radial_convolve(
                    tree.shell_indicator(j), tree.shell_indicator(i), spec
                )
        x = tree.representative(spec, 2)
        y = tree.representative(spec, 1)
        ok &= tree.bz_counts(spec, x, y, 3) == tree.direct_pair_counts(spec, x, y)
    return 0.0 if ok else 1.0


_CHECKS: list[tuple[str, str, float, Callable]] = [
    ("gamma-duplication", "Legendre duplication formula", 1e-12, _check_gamma_duplication),
    ("gamma-recurrence", "Gamma(z+1) = z Gamma(z)", 1e-12, _check_gamma_recurrence),
    ("gamma-conjugation", "Gamma commutes with conjugation", 1e-12, _check_gamma_conjugation),
    ("gamma-reflection", "Euler reflection formula", 1e-12, _check_gamma_reflection),
    ("beta-integral", "Beta vs its Euler integral", 1e-8, _check_beta_integral),
    ("hyp2f1-log-form", "F(1,1;2;z) = -log(1-z)/z", 1e-10, _check_hyp2f1_log_form),
    ("hyp2f1-gauss-limit", "unit-argument Gauss evaluation", 1e-6, _check_hyp2f1_gauss_limit),
    ("bessel-symmetry", "K is even in its order", 1e-10, _check_bessel_symmetry),
    ("bessel-conjugation", "K commutes with conjugation", 1e-10, _check_bessel_conjugation),
    ("bessel-half-integer", "K_(1/2) closed form", 1e-10, _check_bessel_half_integer),
    ("weber-schafheitlin", "K-product moment: quadrature vs Gamma form", 1e-7, _check_weber_schafheitlin),
    ("spherical-triple-agreement", "three spherical-function routes agree", 1e-8, _check_triple_agreement),
    ("norm-vs-l1", "multiplier norm vs kernel L1 norm", 1e-6, _check_norm_vs_l1),
    ("axis-normalization", "norm is 1 on both axes and at the corner", 1e-12, _check_axis_normalization),
    ("c-normalization", "c(m/2) = 1", 1e-12, _check_c_normalization),
    ("asymptotic-handoff", "large-r behaviour matches c(s)", 1e-4, _check_asymptotic_handoff),
    ("fourier-pair", "kernel transform: quadrature vs K form", 1e-6, _check_fourier_pair),
    ("representation-coefficient", "sphere-representation coefficient vs phi", 1e-6, _check_representation_coefficient),
    ("stereographic-isometry", "conformal change of variables is isometric", 1e-6, _check_stereographic_isometry),
    ("cesaro-point-mass", "interval-average point-mass extraction", 1e-2, _check_cesaro),
    ("tree-suite", "tree spheres, commutativity, pair-count constancy", 0.5, _check_tree_suite),
]


def available_checks() -> list[str]:
    return [check_id for check_id, _, _, _ in _CHECKS]


def run_checks(selected: list[str] | None = None,
               gamma_perturbation: float = 0.0) -> list[CheckResult]:
    """Run the suite (or a selection) and return per-check results."""
    if selected is not None:
        unknown = set(selected) - set(available_checks())
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")

    def gam(z):
        return specfun.gamma(z) * (1.0 + gamma_perturbation)

    results = []
    for check_id, anchor, tol, fn in _CHECKS:
        if selected is not None and check_id not in selected:
            continue
        achieved = float(fn(gam))
        results.append(
            CheckResult(
                check_id=check_id,
                anchor=anchor,
                achieved_error=achieved,
                tolerance=tol,
            )
        )
    return results
