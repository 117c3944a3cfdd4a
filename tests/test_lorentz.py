"""Lorentz matrices, the sphere action, and the representation oracles."""

import math

import numpy as np
import pytest

from sphmult import groups, lorentz as lz, spherical as sph
from sphmult.errors import ConvergenceError, DomainError, InvariantError
from sphmult.quadrature import QuadratureSpec, integrate

TIGHT = QuadratureSpec(1e-10, 1e-15, 60000)


def random_group_element(rng, n=3):
    g = lz.make_a(rng.uniform(-1.5, 1.5), n)
    g = g @ lz.make_n(rng.uniform(-1.0, 1.0, size=n - 1))
    return g @ lz.make_a(rng.uniform(-1.0, 1.0), n)


def random_sphere_point(rng, n=3):
    z = rng.normal(size=n)
    return z / np.linalg.norm(z)


class TestConstructors:
    def test_boost_at_zero_is_identity(self):
        assert np.array_equal(lz.make_a(0.0, 4).entries, np.eye(5))

    def test_translation_at_zero_is_identity(self):
        assert np.array_equal(lz.make_n([0.0, 0.0]).entries, np.eye(4))

    def test_boost_one_parameter_law(self):
        lhs = (lz.make_a(0.8, 3) @ lz.make_a(-0.3, 3)).entries
        assert np.max(np.abs(lhs - lz.make_a(0.5, 3).entries)) < 1e-12

    def test_translation_group_law(self):
        lhs = (lz.make_n([0.4, -1.1]) @ lz.make_n([1.0, 2.0])).entries
        assert np.max(np.abs(lhs - lz.make_n([1.4, 0.9]).entries)) < 1e-12

    def test_boost_is_exponential_of_generator(self):
        h = lz.boost_generator(3)
        series = np.eye(4)
        term = np.eye(4)
        for k in range(1, 40):
            term = term @ (0.7 * h) / k
            series = series + term
        assert np.max(np.abs(series - lz.make_a(0.7, 3).entries)) < 1e-12

    def test_invariants_on_random_products(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_group_element(rng)
            arr = g.entries
            j = np.diag([-1.0, 1.0, 1.0, 1.0])
            assert np.max(np.abs(arr.T @ j @ arr - j)) < 1e-10
            assert abs(np.linalg.det(arr) - 1.0) < 1e-10
            assert arr[0, 0] >= 1.0 - 1e-12

    def test_validation_rejects_non_lorentz(self):
        with pytest.raises(InvariantError):
            lz.lorentz_matrix(np.eye(4) * 2.0)
        with pytest.raises(InvariantError):
            lz.lorentz_matrix(np.diag([-1.0, 1.0, 1.0, 1.0]))  # g00 < 1

    def test_make_a_requires_rank(self):
        with pytest.raises(DomainError):
            lz.make_a(1.0, 1)


class TestInverse:
    def test_identity(self):
        e = lz.make_a(0.0, 3)
        assert np.array_equal(lz.lorentz_inverse(e).entries, np.eye(4))

    def test_boost_inverse(self):
        inv = lz.lorentz_inverse(lz.make_a(1.3, 3))
        assert np.max(np.abs(inv.entries - lz.make_a(-1.3, 3).entries)) < 1e-12

    def test_random_products(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            g = random_group_element(rng)
            prod = g.entries @ lz.lorentz_inverse(g).entries
            assert np.max(np.abs(prod - np.eye(4))) < 1e-10


class TestSphereAction:
    def test_identity_fixes_points(self):
        rng = np.random.default_rng(33)
        zeta = random_sphere_point(rng)
        out = lz.act_on_sphere(lz.make_a(0.0, 3), zeta)
        assert np.max(np.abs(out - zeta)) < 1e-14

    def test_boost_fixes_first_axis(self):
        zeta = np.array([1.0, 0.0, 0.0])
        out = lz.act_on_sphere(lz.make_a(2.2, 3), zeta)
        assert np.max(np.abs(out - zeta)) < 1e-14

    def test_action_law(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            g, h = random_group_element(rng), random_group_element(rng)
            zeta = random_sphere_point(rng)
            lhs = lz.act_on_sphere(g @ h, zeta)
            rhs = lz.act_on_sphere(g, lz.act_on_sphere(h, zeta))
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_output_is_unit(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            out = lz.act_on_sphere(random_group_element(rng), random_sphere_point(rng))
            assert abs(np.dot(out, out) - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(InvariantError):
            lz.act_on_sphere(lz.make_a(1.0, 3), np.array([1.0, 1.0, 0.0]))


class TestCocycle:
    def test_rotation_gives_zero(self):
        rot = np.eye(4)
        angle = 0.9
        rot[2, 2] = rot[3, 3] = math.cos(angle)
        rot[2, 3] = -math.sin(angle)
        rot[3, 2] = math.sin(angle)
        k = lz.lorentz_matrix(rot)
        rng = np.random.default_rng(36)
        assert abs(lz.cocycle_r(k, random_sphere_point(rng))) < 1e-14

    def test_boost_at_base_point(self):
        zeta = np.array([1.0, 0.0, 0.0])
        assert abs(lz.cocycle_r(lz.make_a(0.7, 3), zeta) - 0.7) < 1e-12

    def test_cocycle_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            g, h = random_group_element(rng), random_group_element(rng)
            zeta = random_sphere_point(rng)
            lhs = lz.cocycle_r(g @ h, zeta)
            rhs = lz.cocycle_r(g, lz.act_on_sphere(h, zeta)) + lz.cocycle_r(h, zeta)
            assert abs(lhs - rhs) < 1e-10


class TestStereographic:
    def test_round_trip(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            zeta = lz.inverse_stereographic(x)
            assert abs(np.dot(zeta, zeta) - 1.0) < 1e-14
            assert np.max(np.abs(lz.stereographic(zeta) - x)) < 1e-12

    def test_antipode_maps_to_origin(self):
        x = lz.stereographic(np.array([-1.0, 0.0, 0.0]))
        assert np.max(np.abs(x)) == 0.0

    def test_base_point_rejected(self):
        with pytest.raises(DomainError):
            lz.stereographic(np.array([1.0, 0.0, 0.0]))

    def test_norm_identity(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            zeta = random_sphere_point(rng)
            if abs(zeta[0] - 1.0) < 1e-6:
                continue
            x = lz.stereographic(zeta)
            assert abs(np.dot(x, x) - (1 + zeta[0]) / (1 - zeta[0])) < 1e-10


class TestIsometryTransport:
    """Quadrature checks of the conformal sphere-to-plane transport."""

    @pytest.mark.parametrize(
        "h",
        [
            lambda p: np.ones(p.shape[0], dtype=complex),
            lambda p: p[:, 0].astype(complex),
            lambda p: (p[:, 0] + 2 * p[:, 1] ** 2).astype(complex),
            lambda p: np.exp(1j * p[:, 1]) * p[:, 0],
            lambda p: 1.0 / (2.0 + p[:, 0]),
        ],
    )
    def test_circle_isometry(self, h):
        lhs = lz.sphere_quadrature(1, lambda p: np.abs(h(p)) ** 2, 2048)

        def plane_density(xs):
            pts = np.stack(
                [(xs**2 - 1) / (xs**2 + 1), 2 * xs / (xs**2 + 1)], axis=1
            )
            return np.abs(h(pts)) ** 2 * (2.0 / (xs**2 + 1.0))

        body = integrate(plane_density, -1.0, 1.0, TIGHT)
        tails = integrate(
            lambda us: (plane_density(1.0 / us) + plane_density(-1.0 / us)) / us**2,
            0.0,
            1.0,
            TIGHT,
        )
        rhs = (body + tails) / (2.0 * math.pi)
        assert abs(lhs - rhs) < 1e-6

    def test_sphere_isometry(self):
        def h(p):
            return (p[:, 0] + 0.5 * p[:, 2]).astype(complex)

        lhs = lz.sphere_quadrature(2, lambda p: np.abs(h(p)) ** 2, 96)

        # plane side in polar coordinates, weight (2/(rho^2+1))^2 / area
        def radial(rhos):
            total = np.zeros_like(rhos, dtype=complex)
            n_ang = 64
            for phi in np.linspace(0.0, 2 * math.pi, n_ang, endpoint=False):
                xs = np.stack([rhos * math.cos(phi), rhos * math.sin(phi)], axis=1)
                nx2 = rhos**2
                pts = np.stack(
                    [
                        (nx2 - 1) / (nx2 + 1),
                        2 * xs[:, 0] / (nx2 + 1),
                        2 * xs[:, 1] / (nx2 + 1),
                    ],
                    axis=1,
                )
                total += np.abs(h(pts)) ** 2 / n_ang
            return total * (2.0 / (rhos**2 + 1.0)) ** 2 * rhos * 2 * math.pi

        body = integrate(radial, 0.0, 1.0, TIGHT)
        tails = integrate(
            lambda us: radial(1.0 / us) / us**2, 0.0, 1.0, TIGHT
        )
        rhs = (body + tails) / (4.0 * math.pi)
        assert abs(lhs - rhs) < 1e-6


class TestSolvableAction:
    """The scaling/translation action on kernel vectors is unitary."""

    @staticmethod
    def _norm_sq(f):
        return integrate(
            lambda x: np.abs(f(x)) ** 2, -30.0, 30.0, TIGHT
        ).real

    def test_scaling_action_unitary(self):
        f = lambda x: np.exp(-0.5 * x**2) * (1.0 + x)
        m, r = 1, 0.8
        acted = lambda x: math.exp(m * r / 2.0) * f(math.exp(r) * x)
        assert abs(self._norm_sq(f) - self._norm_sq(acted)) < 1e-8

    def test_scaling_action_composes(self):
        f = lambda x: np.exp(-(x**2)) + 0.3 * x
        m, r1, r2 = 1, 0.4, -0.9
        once = lambda x: math.exp(m * r1 / 2.0) * f(math.exp(r1) * x)
        twice = lambda x: math.exp(m * r2 / 2.0) * once(math.exp(r2) * x)
        combined = lambda x: math.exp(m * (r1 + r2) / 2.0) * f(math.exp(r1 + r2) * x)
        xs = np.linspace(-3, 3, 17)
        assert np.max(np.abs(twice(xs) - combined(xs))) < 1e-12

    def test_translation_action_unitary(self):
        f = lambda x: np.exp(-0.3 * x**2) * (2.0 - x)
        y = 1.7
        acted = lambda x: np.exp(-1j * y * x) * f(x)
        assert abs(self._norm_sq(f) - self._norm_sq(acted)) < 1e-8


class TestPhiViaRho:
    def test_identity_gives_one(self):
        assert abs(lz.phi_via_rho(2, 0.3 + 0.6j, lz.make_a(0.0, 2)) - 1.0) < 1e-12

    def test_matches_phi_on_circle(self):
        g2 = groups.params_for("so0", 2)
        rng = np.random.default_rng(40)
        for _ in range(5):
            s = complex(rng.uniform(-0.45, 0.45), rng.uniform(-1.5, 1.5))
            r = rng.uniform(0.1, 2.0)
            via_rho = lz.phi_via_rho(2, s, lz.make_a(r, 2))
            direct = complex(sph.phi(g2, s, r))
            assert abs(via_rho - direct) < 1e-6

    def test_matches_phi_on_sphere(self):
        g3 = groups.params_for("so0", 3)
        rng = np.random.default_rng(41)
        for _ in range(5):
            s = complex(rng.uniform(-0.9, 0.9), rng.uniform(-1.5, 1.5))
            r = rng.uniform(0.1, 2.0)
            via_rho = lz.phi_via_rho(3, s, lz.make_a(r, 3))
            direct = complex(sph.phi(g3, s, r))
            assert abs(via_rho - direct) < 1e-6

    def test_translation_route_matches_extension(self):
        v1 = lz.phi_via_rho(2, 0.25 + 0.45j, lz.make_n([1.3]))
        v2 = sph.phi_on_na(1, 0.25 + 0.45j, 0.0, 1.3)
        assert abs(v1 - v2) < 1e-6

    def test_mixed_element(self):
        # K-bi-invariance: a general element evaluates like its polar radius
        s = 0.2 + 0.7j
        g = lz.make_n([0.9]) @ lz.make_a(0.6, 2)
        via_rho = lz.phi_via_rho(2, s, g)
        # polar radius from cosh r' = g00 of the K A K decomposition
        r_polar = math.acosh(g.entries[0, 0])
        direct = complex(sph.phi(groups.params_for("so0", 2), s, r_polar))
        assert abs(via_rho - direct) < 1e-6

    def test_unsupported_rank(self):
        with pytest.raises(DomainError):
            lz.phi_via_rho(4, 0.2, lz.make_a(1.0, 4))

    def test_one_sphere_grid(self, monkeypatch):
        # the 48 x 48 grid is accepted on its own error estimate; the
        # 96 x 96 grid, whose value the confirming pass returned, agrees
        s, r = 0.2 + 0.5j, 0.7
        finer = lz.sphere_quadrature(
            2, lambda p: (math.cosh(r) - math.sinh(r) * p[:, 0]) ** -(1.0 + s), 96)
        grids = []
        rule = lz._sphere_rule

        def counted(m, f, n_nodes):
            grids.append(n_nodes)
            return rule(m, f, n_nodes)

        monkeypatch.setattr(lz, "_sphere_rule", counted)
        value = lz.phi_via_rho(3, s, lz.make_a(r, 3))
        assert grids == [48]
        assert abs(value - finer) < 1e-12 * abs(finer)

    def test_unconverged_refinement_raises(self):
        s, g = 0.3 + 0.6j, lz.make_a(1.2, 2)
        with pytest.raises(ConvergenceError) as excinfo:
            lz.phi_via_rho(2, s, g, QuadratureSpec(relative_tolerance=1e-17))
        assert abs(excinfo.value.best_estimate - lz.phi_via_rho(2, s, g)) < 1e-6
        assert excinfo.value.achieved_error < 1e-6


class TestFhatCheck:
    def test_pair_agrees_complex(self):
        direct, closed = lz.fhat_check(1, 0.3 + 0.7j, 1.0)
        assert abs(direct - closed) / abs(closed) < 1e-6

    def test_pair_agrees_real(self):
        direct, closed = lz.fhat_check(1, 0.5, 2.0)
        assert abs(direct - closed) / abs(closed) < 1e-6

    def test_large_y_exponential_decay(self):
        direct, closed = lz.fhat_check(1, 0.45 + 0.2j, 10.0)
        assert abs(direct - closed) / abs(closed) < 1e-4
        # magnitude tracks e^-y within a modest factor
        assert abs(closed) < 10.0 * math.exp(-10.0)
        assert abs(closed) > 0.01 * math.exp(-10.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lz.fhat_check(2, 0.4, 1.0)
        with pytest.raises(DomainError):
            lz.fhat_check(1, 0.4j, 1.0)
        with pytest.raises(DomainError):
            lz.fhat_check(1, 0.4, 0.0)


class TestCoefficientPairing:
    def test_matches_extension_integral(self):
        for s, r, y in ((0.2 + 0.4j, 0.8, 0.6), (0.35 - 0.7j, 0.3, 1.1)):
            v1 = lz.coefficient_pairing(1, s, r, y)
            v2 = sph.phi_on_na(1, s, r, y)
            assert abs(v1 - v2) < 1e-5

    @pytest.mark.parametrize("sigma", [0.49, 0.499])
    def test_close_to_the_strip_edge(self, sigma):
        # e^v underflowed at the left end of the grid: DomainError before
        for s in (complex(sigma, 0.0), complex(sigma, 0.3)):
            v1 = lz.coefficient_pairing(1, s, 0.5, 0.3)
            v2 = sph.phi_on_na(1, s, 0.5, 0.3)
            assert abs(v1 - v2) < 1e-10

    def test_panel_budget_near_the_strip_edge(self):
        # about 190,000 panels and 180 MB arrays were built here
        with pytest.raises(ConvergenceError):
            lz.coefficient_pairing(1, 0.5 - 1e-4, 0.5, 0.3)

    def test_error_payload_is_in_the_units_of_phi_on_na(self):
        # the kernels' floor raises in both; the pairing's estimate lacked
        # its factor 2 e^(mr/2) (0.0354 against 0.1497)
        args = (1, 0.2 + 12j, 1.5, 0.4)
        with pytest.raises(ConvergenceError) as pairing:
            lz.coefficient_pairing(*args)
        with pytest.raises(ConvergenceError) as extension:
            sph.phi_on_na(*args)
        want = extension.value.best_estimate
        assert abs(pairing.value.best_estimate - want) < 1e-6 * abs(want)
        assert abs(pairing.value.achieved_error / extension.value.achieved_error - 1.0) < 1e-3

    @pytest.mark.parametrize("t", [10.0, 14.0, 20.0])
    def test_large_imaginary_part_holds_or_raises(self, t):
        # the panel kernel returned 2.2e-7, 1.5e-4 and 1.8e-2 off at
        # t = 10, 14 and 20
        s = complex(0.3, t)
        try:
            value = lz.coefficient_pairing(1, s, 0.7, 0.0)
        except ConvergenceError:
            return
        want = sph.phi_lorentz_hyp2(1, s, 0.7)
        assert abs(value - want) < 1e-8 * abs(want)

    def test_reduces_to_phi(self):
        g2 = groups.params_for("so0", 2)
        v = lz.coefficient_pairing(1, 0.3 + 0.5j, 0.9, 0.0)
        assert abs(v - complex(sph.phi(g2, 0.3 + 0.5j, 0.9))) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            lz.coefficient_pairing(2, 0.2, 0.5, 0.5)
        with pytest.raises(DomainError):
            lz.coefficient_pairing(1, 0.8, 0.5, 0.5)
