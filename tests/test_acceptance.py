"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single line

    ACCEPTANCE <k> <name>: PASS|FAIL (detail)

so the suite doubles as a human-readable acceptance report
(``pytest -s tests/test_acceptance.py``).
"""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from sphmult import groups, lorentz as lz, specfun as sf, spherical as sph, tree as tr
from sphmult.quadrature import QuadratureSpec

TIGHT = QuadratureSpec(1e-10, 1e-16, 60000)


def report(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {verdict} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_01_triple_formula_agreement():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for m in (1, 2, 3, 4):
        group = groups.params_for("so0", m + 1)
        for _ in range(20):
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            s = complex(rng.uniform(-0.45, 0.45) * m, sign * rng.uniform(0.3, 2.0))
            for r in (0.1, 0.5, 1.0, 2.0, 5.0):
                stable = complex(sph.phi(group, s, r))
                quad = sph.phi_lorentz_integral(m, s, r, TIGHT)
                second = sph.phi_lorentz_hyp2(m, s, r)
                worst = max(worst, rel(stable, quad), rel(stable, second))
    elapsed = time.time() - start
    report(
        1,
        "triple-formula agreement",
        worst <= 1e-8 and elapsed < 60.0,
        f"worst rel {worst:.2e} <= 1e-8, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_norm_identity():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for m in (1, 2, 3):
        for _ in range(10):
            s = complex(rng.uniform(-0.35, 0.35) * m, rng.uniform(0.2, 1.5))
            closed = sph.cb_norm_lorentz(m, s)
            quad = sph.multiplier_l1_norm(m, s)
            worst = max(worst, rel(closed, quad))
    elapsed = time.time() - start
    report(
        2,
        "multiplier norm equals kernel L1 norm",
        worst <= 1e-6 and elapsed < 120.0,
        f"worst rel {worst:.2e} <= 1e-6, {elapsed:.1f}s < 120s",
    )


def test_criterion_03_axis_normalization():
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in range(50):
        m = (k % 3) + 1
        t = rng.uniform(-4.0, 4.0)
        worst = max(worst, abs(sph.cb_norm_lorentz(m, complex(0.0, t)) - 1.0))
    for k in range(50):
        m = (k % 3) + 1
        sigma = rng.uniform(-0.499, 0.499) * m
        worst = max(worst, abs(sph.cb_norm_lorentz(m, complex(sigma, 0.0)) - 1.0))
    corners_exact = all(
        sph.cb_norm_lorentz(m, sign * m / 2.0) == 1.0
        for m in (1, 2, 3)
        for sign in (1.0, -1.0)
    )
    report(
        3,
        "axis and corner normalization",
        worst <= 1e-12 and corners_exact,
        f"worst axis deviation {worst:.2e} <= 1e-12, corners exactly 1: {corners_exact}",
    )


def test_criterion_04_divergence_at_boundary():
    ok = True
    detail = []
    for k in range(2, 7):
        val = sph.cb_norm_lorentz(2, complex(1.0 - 10.0**-k, 1.0))
        ok &= val > 10.0 ** (k - 1)
        detail.append(f"k={k}: {val:.3g}")
    eps = 1e-4
    ratio = sph.cb_norm_lorentz(2, complex(1.0 - eps / 2.0, 1.0)) / sph.cb_norm_lorentz(
        2, complex(1.0 - eps, 1.0)
    )
    ok &= 1.8 <= ratio <= 2.2
    report(
        4,
        "norm divergence toward the strip boundary",
        ok,
        "; ".join(detail) + f"; halving ratio {ratio:.4f} in [1.8, 2.2]",
    )


def test_criterion_05_weber_schafheitlin():
    start = time.time()
    rng = np.random.default_rng(105)
    cases = [(0.0, 0.0, 0.0)]
    while len(cases) < 20:
        nu = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.5, 1.5))
        mu = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.5, 1.5))
        rho = rng.uniform(-1.5, 0.8)
        margin = min(
            1.0 + snu * nu.real + smu * mu.real - rho
            for snu in (1, -1)
            for smu in (1, -1)
        )
        if margin > 0.25:
            cases.append((nu, mu, rho))
    worst = 0.0
    for nu, mu, rho in cases:
        lhs = sf.bessel_product_moment(nu, mu, -rho)
        rhs = sf.weber_schafheitlin_rhs(nu, mu, rho)
        worst = max(worst, rel(lhs, rhs))
    pi_sq_over_4 = rel(sf.weber_schafheitlin_rhs(0, 0, 0), math.pi**2 / 4.0)
    elapsed = time.time() - start
    report(
        5,
        "K-product moment: quadrature vs Gamma form",
        worst <= 1e-7 and pi_sq_over_4 < 1e-12 and elapsed < 30.0,
        f"20 cases worst rel {worst:.2e} <= 1e-7, K0^2 integral = pi^2/4, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_06_asymptotics():
    worst = 0.0
    r = 20.0
    ts = (0.0, 0.5, 1.0, -0.7, 0.3)
    for m in (1, 2):
        group = groups.params_for("so0", m + 1)
        for frac, t in zip((0.30, 0.33, 0.37, 0.41, 0.44), ts):
            s = complex(frac * m, t)
            value = sph.phi(group, s, r)
            scaled = complex(value) * cmath.exp((m / 2.0 - s) * r)
            worst = max(worst, abs(scaled - sph.c_function(group, s)))
    c_norm = max(
        abs(sph.c_function(groups.params_for("so0", m + 1), m / 2.0) - 1.0)
        for m in (1, 2)
    )
    report(
        6,
        "large-r asymptotics match the c-function",
        worst <= 1e-4 and c_norm <= 1e-12,
        f"10 samples worst |phi e^((m/2-s)r) - c| {worst:.2e} <= 1e-4, "
        f"|c(m/2)-1| {c_norm:.1e} <= 1e-12",
    )


def test_criterion_07_representation_coefficient():
    rng = np.random.default_rng(107)
    worst_rho = 0.0
    for n in (2, 3):
        group = groups.params_for("so0", n)
        for _ in range(10):
            s = complex(rng.uniform(-0.45, 0.45) * group.m, rng.uniform(-1.5, 1.5))
            r = rng.uniform(0.1, 2.0)
            via_rho = lz.phi_via_rho(n, s, lz.make_a(r, n))
            direct = complex(sph.phi(group, s, r))
            worst_rho = max(worst_rho, abs(via_rho - direct))
    worst_pair = 0.0
    for s, r, y in ((0.2 + 0.4j, 0.8, 0.6), (0.35 - 0.7j, 0.3, 1.1), (-0.1 + 1.0j, 1.4, 0.25)):
        pairing = lz.coefficient_pairing(1, s, r, y)
        extension = sph.phi_on_na(1, s, r, y)
        worst_pair = max(worst_pair, abs(pairing - extension))
    report(
        7,
        "representation coefficient routes",
        worst_rho <= 1e-6 and worst_pair <= 1e-5,
        f"sphere-coefficient worst {worst_rho:.2e} <= 1e-6, "
        f"kernel pairing worst {worst_pair:.2e} <= 1e-5",
    )


def test_criterion_08_fourier_transform_pair():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(10):
        s = complex(rng.uniform(0.1, 1.0), rng.uniform(-1.2, 1.2))
        for y in (0.5, 1.0, 2.0):
            direct, closed = lz.fhat_check(1, s, y)
            worst = max(worst, rel(direct, closed))
    report(
        8,
        "kernel Fourier transform pair",
        worst <= 1e-6,
        f"10 s x 3 y worst rel {worst:.2e} <= 1e-6",
    )


def test_criterion_09_tree_suite():
    start = time.time()
    specs = [
        tr.FreeProductSpec(3, 0),
        tr.FreeProductSpec(4, 0),
        tr.FreeProductSpec(0, 2),
        tr.FreeProductSpec(1, 1),
        tr.FreeProductSpec(2, 1),
    ]
    sizes_ok = True
    for spec in specs:
        shells = tr.spheres(spec, 8)
        sizes_ok &= all(len(shells[n]) == tr.sphere_size(spec, n) for n in range(9))

    commutative = True
    for spec in specs:
        for i in range(5):
            for j in range(i, 5):
                ab = tr.radial_convolve(tr.shell_indicator(i), tr.shell_indicator(j), spec)
                ba = tr.radial_convolve(tr.shell_indicator(j), tr.shell_indicator(i), spec)
                commutative &= ab == ba

    rng = random.Random(109)
    counts_constant = True
    two_point_ok = True
    for spec in specs:
        ball = [w for sh in tr.spheres(spec, 3) for w in sh]
        support = rng.sample(ball, min(12, len(ball)))
        h = {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in support}
        one_point = tr.radialize(spec, h)
        for x, y in itertools.product(ball, ball):
            counts = tr.bz_counts(spec, x, y, 6)
            counts_constant &= len(set(counts.values())) == 1
            target = len(tr.multiply(spec, tr.inverse(spec, y), x))
            total_pairs = sum(counts.values())
            acc = sum(h.get(z, 0) * c for z, c in counts.items())
            two_point_ok &= Fraction(acc, total_pairs) == one_point(target)

    contraction_ok = True
    for _ in range(100):
        spec = rng.choice(specs)
        ball = [w for sh in tr.spheres(spec, 3) for w in sh]
        support = rng.sample(ball, rng.randint(1, min(15, len(ball))))
        f = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for w in support}
        contraction_ok &= tr.l1_norm(spec, tr.radialize(spec, f)) <= sum(
            abs(v) for v in f.values()
        )

    elapsed = time.time() - start
    ok = sizes_ok and commutative and counts_constant and two_point_ok and contraction_ok
    report(
        9,
        "homogeneous-tree radial suite",
        ok and elapsed < 60.0,
        f"sizes {sizes_ok}, commutativity {commutative}, pair counts {counts_constant}, "
        f"two-point {two_point_ok}, contraction {contraction_ok}, {elapsed:.1f}s < 60s",
    )


def test_criterion_10_cesaro_extraction():
    phi_map = lambda rs: 3.0 * np.exp(-2j * rs) + np.exp(-rs)
    n = 10_000
    at_two = sph.cesaro_extract(phi_map, 2.0, n)
    at_one = sph.cesaro_extract(phi_map, 1.0, n)
    err2 = abs(at_two - 3.0)
    err1 = abs(at_one)
    report(
        10,
        "point-mass extraction",
        err2 <= 1e-2 and err1 <= 1e-2,
        f"|estimate(2) - 3| = {err2:.2e} <= 1e-2, |estimate(1)| = {err1:.2e} <= 1e-2",
    )


def test_criterion_11_gamma_property_suite():
    start = time.time()
    rng = np.random.default_rng(111)

    def grid(count=100):
        return [
            complex(a, b)
            for a, b in zip(
                rng.uniform(0.1, 5.0, count), rng.uniform(-5.0, 5.0, count)
            )
        ]

    dup = max(
        rel(sf.gamma(2 * z), 2 ** (2 * z - 1) / math.sqrt(math.pi) * sf.gamma(z) * sf.gamma(z + 0.5))
        for z in grid()
    )
    rec = max(rel(sf.gamma(z + 1), z * sf.gamma(z)) for z in grid())
    conj = max(rel(sf.gamma(z.conjugate()), sf.gamma(z).conjugate()) for z in grid())
    refl = max(
        rel(sf.gamma(z) * sf.gamma(1 - z), math.pi / cmath.sin(math.pi * z))
        for z in grid()
    )
    elapsed = time.time() - start
    worst = max(dup, rec, conj, refl)
    report(
        11,
        "Gamma identity suite",
        worst <= 1e-12 and elapsed < 5.0,
        f"duplication {dup:.1e}, recurrence {rec:.1e}, conjugation {conj:.1e}, "
        f"reflection {refl:.1e}, all <= 1e-12, {elapsed:.1f}s < 5s",
    )
