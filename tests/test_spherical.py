"""Spherical values, norms, kernel vectors and the point-mass extractor."""

import cmath
import inspect
import math
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from sphmult import groups, specfun, spherical as sph
from sphmult.errors import ConvergenceError, DomainError, NotAMultiplierError
from sphmult.quadrature import QuadratureSpec, integrate
from sphmult.specfun import bessel_product_moment, gamma

try:
    import mpmath
except ImportError:  # the integer-s oracle below is skipped without it
    mpmath = None

SO12 = groups.params_for("so0", 2)  # m = 1
SO13 = groups.params_for("so0", 3)  # m = 2
SO14 = groups.params_for("so0", 4)  # m = 3
F4 = groups.params_for("f4")  # m = 22

TIGHT = QuadratureSpec(1e-10, 1e-16, 60000)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestPhi:
    def test_values_are_python_numbers_on_every_route(self):
        # the quadrature route returned np.complex128, and the L1 norm
        # np.float64
        routes = {sph.EvalMethod.HYPERGEOMETRIC_STABLE: (0.3 + 1j, 1.0),
                  sph.EvalMethod.INTEGRAL_QUADRATURE: (0.3 + 160j, 1.4),
                  sph.EvalMethod.ASYMPTOTIC: (0.8, 30.0)}
        for method, (s, r) in routes.items():
            value = sph.phi(SO13, s, r)
            assert value.method is method
            assert type(value.value) is complex, method
        assert type(sph.multiplier_l1_norm(2, 0.3 + 1j)) is float

    def test_constant_at_corner(self):
        # b-parameter of the hypergeometric vanishes at s = m/2
        for group in (SO12, SO13, F4):
            for r in (0.0, 1.7, 6.0, 40.0):
                assert rel(complex(sph.phi(group, group.m / 2.0, r)), 1.0) < 1e-12

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    def test_cancelling_series_is_not_returned(self):
        # tanh^2(1) lies in the power-series region, whose terms cancel at
        # large |Im s|: the sum was 3.6e-6 off at t = 30 and O(1) at t = 50.
        # SO0 takes its quadrature form there, the other families raise.
        for t in (12.0, 30.0, 50.0):
            s = complex(0.3, t)
            value = sph.phi(SO13, s, 1.0)
            assert value.method is sph.EvalMethod.INTEGRAL_QUADRATURE
            assert rel(complex(value), mp_phi_so0(2, s, 1.0)) < 1e-10
        with pytest.raises(ConvergenceError):
            sph.phi(groups.params_for("su", 2), complex(0.3, 50.0), 1.0)

    def test_one_at_origin(self):
        assert complex(sph.phi(SO13, 0.2 + 0.5j, 0.0)) == 1.0
        assert complex(sph.phi(F4, 3.0 - 2.0j, 0.0)) == 1.0

    def test_non_finite_arguments(self):
        for s, r in ((math.nan, 1.0), (complex(0.3, math.inf), 1.0), (0.3, math.nan),
                     (0.3, math.inf), (0.3, -math.inf)):
            with pytest.raises(DomainError):
                sph.phi(SO13, s, r)

    def test_matches_integral_oracle_example(self):
        target = complex(sph.phi(SO12, 0.2 + 0.5j, 1.3))
        oracle = sph.phi_lorentz_integral(1, 0.2 + 0.5j, 1.3, TIGHT)
        assert rel(target, oracle) < 1e-8

    def test_even_in_s_and_r(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            group = groups.params_for("so0", m + 1)
            s = complex(rng.uniform(-0.49, 0.49) * m, rng.uniform(-3, 3))
            r = rng.uniform(-5, 5)
            base = complex(sph.phi(group, s, r))
            assert rel(base, complex(sph.phi(group, -s, r))) < 1e-10
            assert rel(base, complex(sph.phi(group, s, -r))) < 1e-10

    def test_bounded_on_closed_strip(self):
        rng = np.random.default_rng(22)
        for group in (SO12, SO13):
            m = group.m
            for _ in range(40):
                s = complex(rng.uniform(-m / 2, m / 2), rng.uniform(-2, 2))
                r = rng.uniform(0, 6)
                assert abs(complex(sph.phi(group, s, r))) <= 1.0 + 1e-9
            # boundary line included
            for t in (0.0, 0.7, -1.3):
                for r in (0.3, 2.0, 7.0):
                    val = abs(complex(sph.phi(group, complex(m / 2, t), r)))
                    assert val <= 1.0 + 1e-9

    def test_asymptotic_method_beyond_switch(self):
        s = 0.45 + 0.2j  # switch radius 20/0.45 < 50
        value = sph.phi(SO12, s, 50.0)
        assert value.method is sph.EvalMethod.ASYMPTOTIC
        # and agrees with the hypergeometric continuation
        direct = sph.phi_lorentz_hyp2(1, s, 50.0)
        assert rel(complex(value), direct) < 1e-10

    def test_exterior_parameters_fine(self):
        # phi exists for every s; only boundedness changes outside
        val = complex(sph.phi(SO13, 3.0, 1.0))
        assert val.real > 1.0

    def test_zero_parameter_logarithmic_path(self):
        # s = 0 puts the hypergeometric in its logarithmic case
        for r in (0.5, 2.0, 4.0):
            a = complex(sph.phi(SO13, 0.0, r))
            b = sph.phi_lorentz_integral(2, 0.0, r, TIGHT)
            assert rel(a, b) < 1e-8

    def test_integer_parameter_fallback_chain(self):
        # real integer s very close to the unit argument: the connection
        # formula does not apply and evaluation falls back to quadrature
        value = sph.phi(SO14, 1.0, 5.0)
        assert value.method is sph.EvalMethod.INTEGRAL_QUADRATURE
        oracle = sph.phi_lorentz_integral(3, 1.0, 5.0, TIGHT)
        assert rel(complex(value), oracle) < 1e-7
        # at moderate r the direct series still handles the integer case
        mid = sph.phi(SO14, 1.0, 3.0)
        assert mid.method is sph.EvalMethod.HYPERGEOMETRIC_STABLE
        assert rel(complex(mid), sph.phi_lorentz_integral(3, 1.0, 3.0, TIGHT)) < 1e-8

    def test_axis_beyond_underflow_raises(self):
        # Re s = 0 and r = 400: sech^2 r underflows, the stable form fails
        # and r is outside the SO0 quadrature's range, so nothing answers
        for group in (SO12, groups.params_for("su", 2)):
            for s in (0.0, 0.3j):
                with pytest.raises(ConvergenceError):
                    sph.phi(group, s, 400.0)


    def test_beyond_float_range_raises(self):
        # asymptotic route (r past the handoff), stable route (cosh^(s-m/2)
        # overflows) and a stable value that comes out infinite
        for s, r in ((10.0 + 0.1j, 75.0), (100.0, 7.9), (300.0, 3.0)):
            with pytest.raises(ConvergenceError):
                sph.phi(SO12, s, r)


class TestUsefulFormulaForms:
    def test_integral_constant_for_half_m(self):
        for r in (0.2, 1.0, 3.0):
            assert rel(sph.phi_lorentz_integral(1, 0.5, r, TIGHT), 1.0) < 1e-9

    def test_integral_trivial_point(self):
        assert rel(sph.phi_lorentz_integral(2, 0.0, 0.0, TIGHT), 1.0) < 1e-10

    def test_integral_matches_phi_m3(self):
        a = sph.phi_lorentz_integral(3, 0.4 - 0.9j, 2.0, TIGHT)
        b = complex(sph.phi(SO14, 0.4 - 0.9j, 2.0))
        assert rel(a, b) < 1e-8

    def test_hyp2_trivials(self):
        assert rel(sph.phi_lorentz_hyp2(2, 0.3 + 0.3j, 0.0), 1.0) < 1e-14
        assert rel(sph.phi_lorentz_hyp2(1, 0.5, 3.0), 1.0) < 1e-12

    def test_hyp2_matches_integral(self):
        a = sph.phi_lorentz_hyp2(2, 0.3 + 0.3j, 1.0)
        b = sph.phi_lorentz_integral(2, 0.3 + 0.3j, 1.0, TIGHT)
        assert rel(a, b) < 1e-8

    def test_hyp2_rejects_negative_r(self):
        with pytest.raises(DomainError):
            sph.phi_lorentz_hyp2(2, 0.3, -1.0)

    def test_hyp2_overflow_is_beyond_the_float_range(self):
        # e^(799) overflows cmath.exp itself: the OverflowError branch runs
        code, lines = sph.phi_lorentz_hyp2.__code__, set()

        def trace(frame, event, arg):
            if frame.f_code is code:
                lines.add(frame.f_lineno)
                return trace
            return None

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            with pytest.raises(ConvergenceError, match="beyond the float range"):
                sph.phi_lorentz_hyp2(2, -800, 1.0)
        finally:
            sys.settrace(previous)
        source, first = inspect.getsourcelines(sph.phi_lorentz_hyp2)
        branch = next(first + i for i, line in enumerate(source) if "except OverflowError" in line)
        assert branch + 1 in lines

    def test_triple_agreement_spot_checks(self):
        rng = np.random.default_rng(23)
        for m in (1, 2, 3, 4):
            group = groups.params_for("so0", m + 1)
            for _ in range(3):
                s = complex(rng.uniform(-0.45, 0.45) * m, rng.uniform(0.3, 2.0))
                for r in (0.5, 2.0, 5.0):
                    a = complex(sph.phi(group, s, r))
                    b = sph.phi_lorentz_integral(m, s, r, TIGHT)
                    c = sph.phi_lorentz_hyp2(m, s, r)
                    assert rel(a, b) < 1e-8
                    assert rel(a, c) < 1e-8


def mp_phi(group, s, r):
    """phi_s(a_r) from mpmath's 2F1 in the stable form, at 40 digits."""
    with mpmath.workdps(40):
        m, m0 = group.m, group.m0
        s, r = mpmath.mpc(s), mpmath.mpf(r)
        f = mpmath.hyp2f1(m / 4.0 - s / 2, m0 / 4.0 - s / 2, (m + m0) / 4.0, mpmath.tanh(r) ** 2)
        return complex(mpmath.cosh(r) ** (s - m / 2.0) * f)


def mp_phi_so0(m, s, r):
    """phi_s(a_r) on SO0(1, m+1) from mpmath's 2F1, at 40 digits."""
    return mp_phi(groups.params_for("so0", m + 1), s, r)


class TestIntegralBoundaryLayer:
    """phi_lorentz_integral for r up to 25, where the integrand's layer at
    th = pi has width ~e^(-r) and missing it returned O(1)-wrong values."""

    RADII = (5.0, 10.0, 15.0, 18.75, 20.0, 22.0, 24.0, 25.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 16])
    def test_matches_stable_phi(self, m):
        group = groups.params_for("so0", m + 1)
        for s in (0.3, 0.45 + 0.2j, 1.5j, 0.7 - 2.0j):
            for r in self.RADII:
                value = sph.phi(group, s, r)
                assert value.method is sph.EvalMethod.HYPERGEOMETRIC_STABLE
                assert rel(sph.phi_lorentz_integral(m, s, r), complex(value)) < 1e-8

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 16])
    def test_integer_s_matches_mpmath(self, m):
        for s in (0.0, 1e-9, 1.0, 2.0):
            for r in self.RADII:
                assert rel(sph.phi_lorentz_integral(m, s, r), mp_phi_so0(m, s, r)) < 1e-8

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    def test_phi_fallback_in_the_layer(self):
        # the stable form fails at integer s; the fallback returned 3.4e-17
        value = sph.phi(groups.params_for("so0", 5), 1.0, 18.75)
        assert value.method is sph.EvalMethod.INTEGRAL_QUADRATURE
        assert rel(complex(value), mp_phi_so0(4, 1.0, 18.75)) < 1e-8

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    def test_phi_fallback_beyond_25(self):
        # near-integer s: the stable form fails and the quadrature answers;
        # 80 digits keep 1 - tanh^2 r = sech^2 r ~ 1e-52 at r = 60
        m, s = 4, 1e-9
        for r in (26.0, 60.0):
            value = sph.phi(groups.params_for("so0", m + 1), s, r)
            assert value.method is sph.EvalMethod.INTEGRAL_QUADRATURE
            with mpmath.workdps(80):
                z = mpmath.tanh(mpmath.mpf(r)) ** 2
                f = mpmath.hyp2f1(m / 4.0 - s / 2, (m + 2) / 4.0 - s / 2, (m + 1) / 2.0, z)
                expected = complex(mpmath.cosh(mpmath.mpf(r)) ** (s - m / 2.0) * f)
            assert rel(complex(value), expected) < 1e-8


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
class TestLargeImaginaryPart:
    """SO0(1,3) at s = 0.3 + it, r = 1, against e^(-(1+s)) F(1+s, 1; 2; 1 - e^-2)."""

    @staticmethod
    def want(t):
        with mpmath.workdps(50):
            s = mpmath.mpc(0.3, t)
            return complex(mpmath.exp(-(1 + s)) * mpmath.hyp2f1(1 + s, 1, 2, 1 - mpmath.exp(-2)))

    def test_second_form(self):
        # the Gauss ratio of the connection formula left the float range
        # from t of about 500 (ConvergenceError)
        for t in (100.0, 240.0, 500.0, 1e3, 1e4):
            assert rel(sph.phi_lorentz_hyp2(2, complex(0.3, t), 1.0), self.want(t)) < 1e-12, t

    def test_phi_falls_back_when_the_series_overflows(self):
        # abs() of an overflowing series term raised a bare OverflowError,
        # which skipped the quadrature fallback
        value = sph.phi(SO13, 0.3 + 1e3j, 1.0)
        assert value.method is sph.EvalMethod.INTEGRAL_QUADRATURE
        assert rel(complex(value), self.want(1e3)) < 1e-10


class TestIntegralTrapezoid:
    """phi_lorentz_integral's nested trapezoid sum: its node budget, its
    large-r layer and its large-|Im s| step."""

    def test_large_r_is_one_or_raises(self):
        # phi_{m/2} = 1; eight adaptive seed panels 12,500 wide missed the
        # layer at v = r and returned 7.1e-15 at r = 1e5
        for r in (100.0, 1e4):
            assert abs(sph.phi_lorentz_integral(2, 1.0, r) - 1.0) < 1e-10, r
        # its first grid, 800,299 nodes, is over the budget of 15 max_panels
        with pytest.raises(ConvergenceError, match="nodes"):
            sph.phi_lorentz_integral(2, 1.0, 1e5)

    @pytest.fixture
    def sizes(self, monkeypatch):
        """The node count of every integrand evaluation, in order."""
        sizes = []

        class CountingNumpy:
            def __getattr__(self, name):
                if name == "exp":
                    return lambda xs: sizes.append(np.size(xs)) or np.exp(xs)
                return getattr(np, name)

        monkeypatch.setattr(sph, "np", CountingNumpy())
        return sizes

    def test_first_step_resolves_the_oscillation(self, sizes):
        # a first step of 1/8 at every |Im s| took up to 8 evaluations at
        # |Im s| >= 12; steps below pi / (|Im s| + 12) take one here
        for m, t, r, nodes in ((2, 30.0, 1.0, 613), (4, 480.0, 2.0, 5281),
                               (2, 1e4, 1.0, 156617)):
            sizes.clear()
            sph.phi_lorentz_integral(m, complex(0.3, t), r)
            assert sizes == [nodes], (m, t, r)

    def test_no_grid_beyond_the_node_budget_is_evaluated(self, sizes):
        # the first grid, 307 nodes at step 1/8, is over 15 * 20
        with pytest.raises(ConvergenceError, match="nodes") as excinfo:
            sph.phi_lorentz_integral(2, 0.3 + 1j, 1.0, QuadratureSpec(max_panels=20))
        assert sizes == [] and excinfo.value.best_estimate is None
        # no grid meets a tolerance below the rounding floor: halvings up to
        # 15 * 100 nodes, then the last estimate in the units of the value
        with pytest.raises(ConvergenceError, match="budget") as excinfo:
            sph.phi_lorentz_integral(2, 0.3 + 1j, 1.0, QuadratureSpec(1e-30, 1e-14, 100))
        assert sizes == [307, 306, 612] and sum(sizes) <= 1500
        want = sph.phi_lorentz_hyp2(2, 0.3 + 1j, 1.0)
        assert type(excinfo.value.best_estimate) is complex
        assert rel(excinfo.value.best_estimate, want) < 1e-12
        assert excinfo.value.achieved_error < 1e-14

    def test_non_finite_r(self):
        for r in (math.inf, math.nan):
            with pytest.raises(DomainError):
                sph.phi_lorentz_integral(2, 0.3, r)

    def test_phi_fallback_at_480(self):
        # the adaptive quadrature exhausted its panel budget here; 50-digit
        # mpmath value of e^(-(2+s) r) F(2+s, 2; 4; 1 - e^(-2r))
        want = -2.860807201888912e-07 + 6.109304211820905e-07j
        if mpmath is not None:
            with mpmath.workdps(50):
                s, r = mpmath.mpc(0.3, 480), mpmath.mpf(2)
                exact = mpmath.exp(-(2 + s) * r) * mpmath.hyp2f1(2 + s, 2, 4, -mpmath.expm1(-2 * r))
            assert rel(want, complex(exact)) < 1e-15
        value = sph.phi(groups.params_for("so0", 5), 0.3 + 480j, 2.0)
        assert value.method is sph.EvalMethod.INTEGRAL_QUADRATURE
        assert type(value.value) is complex
        assert rel(value.value, want) < 1e-8


# phi on these families is the stable 2F1 form alone, with no fallback
HYP2F1_ONLY = [groups.params_for(f, n) for f, n in (("su", 2), ("su", 3), ("sp", 2), ("f4", None))]


class TestCancellingConnectionSeries:
    """The connection series at unit argument cancel at large |Im s|: at
    (0.3 + 3000i, 2) phi was returned up to 2e6 off, at (0.3 + 300i, 1.4)
    up to 4e-10, labelled hypergeometric_stable."""

    POINTS = ((complex(0.3, 3000.0), 2.0), (complex(0.3, 300.0), 1.4))

    @pytest.mark.parametrize("group", HYP2F1_ONLY, ids=str)
    def test_raises_without_a_fallback(self, group):
        for s, r in self.POINTS:
            with pytest.raises(ConvergenceError):
                sph.phi(group, s, r)

    def test_so0_falls_back_to_the_integral(self):
        for s, r in self.POINTS:
            value = sph.phi(SO13, s, r)
            assert value.method is sph.EvalMethod.INTEGRAL_QUADRATURE
            assert rel(complex(value), sph.phi_lorentz_hyp2(2, s, r)) < 1e-8

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    @pytest.mark.parametrize("group", HYP2F1_ONLY, ids=str)
    def test_well_conditioned_points_still_return(self, group):
        s, r = complex(0.3, 100.0), 1.4
        value = sph.phi(group, s, r)
        assert value.method is sph.EvalMethod.HYPERGEOMETRIC_STABLE
        assert rel(complex(value), mp_phi(group, s, r)) < 1e-12

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    @pytest.mark.parametrize("group", HYP2F1_ONLY + [SO13], ids=str)
    def test_logarithmic_case_at_s_zero(self, group):
        # the log series stopped on one small term: 2.3e-13 off at r = 1.4
        for r in (1.4, 2.0, 4.0):
            assert rel(complex(sph.phi(group, 0.0, r)), mp_phi(group, 0.0, r)) < 5e-14


class TestCFunction:
    def test_normalized_at_corner(self):
        for group in (SO12, SO13, SO14, F4):
            assert abs(sph.c_function(group, group.m / 2.0) - 1.0) < 1e-12

    def test_closed_form_m1_s1(self):
        # 2^(-1/2) / (G(3/4) G(5/4)) with G(3/4) taken from the
        # reflection formula so the oracle is a different route
        g_quarter = gamma(0.25).real
        g_three_quarters = math.pi / (math.sin(math.pi / 4) * g_quarter)
        oracle = 2 ** (-0.5) / (g_three_quarters * 0.25 * g_quarter)
        assert rel(sph.c_function(SO12, 1.0), oracle) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sph.c_function(SO12, -0.3)
        with pytest.raises(DomainError):
            sph.c_function(SO12, 1j)

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    def test_large_imaginary_part(self):
        # gamma's reflection overflows from |t| of about 230; c is in range
        with mpmath.workdps(30):
            for group in (SO12, SO14, F4):
                m, m0 = group.m, group.m0
                for s in (0.2 + 70j, 0.3 + 240j, 1.0 - 1e3j, 2.5 + 5e3j, 0.1 + 1e4j):
                    z = mpmath.mpc(s)
                    want = complex(2 ** (mpmath.mpf(m) / 2 - z) * mpmath.gamma(mpmath.mpf(m + m0) / 4)
                                   * mpmath.gamma(z) / (mpmath.gamma(mpmath.mpf(m) / 4 + z / 2)
                                                        * mpmath.gamma(mpmath.mpf(m0) / 4 + z / 2)))
                    assert rel(sph.c_function(group, s), want) < 1e-12

    def test_limit_of_phi(self):
        # phi e^((m/2-s) r) -> c(s) without invoking the asymptotic branch
        r = 20.0
        for group, s in ((SO12, 0.35 + 0.8j), (SO13, 0.7 - 0.5j)):
            value = sph.phi(group, s, r)
            assert value.method is sph.EvalMethod.HYPERGEOMETRIC_STABLE
            scaled = complex(value) * cmath.exp((group.m / 2.0 - s) * r)
            assert abs(scaled - sph.c_function(group, s)) < 1e-4

    def test_boundary_limit_nonzero(self):
        # on the line Re s = m/2 the scaled limit is c(m/2 + it) != 0
        for group, t in ((SO12, 0.8), (SO13, -1.1)):
            s = complex(group.m / 2.0, t)
            r = 25.0
            value = complex(sph.phi(group, s, r)) * cmath.exp(-1j * t * r)
            limit = sph.c_function(group, s)
            assert abs(limit) > 0.1
            assert abs(value - limit) < 1e-6


class TestPhiAsymptotic:
    def test_matches_phi_at_large_r(self):
        for group in (SO12, SO13):
            s = 0.3 * group.m
            a = sph.phi_asymptotic(group, s, 20.0)
            b = complex(sph.phi(group, s, 20.0))
            assert abs(a - b) < 1e-4

    def test_constant_at_corner(self):
        for r in (0.0, 3.0, 17.0):
            assert rel(sph.phi_asymptotic(SO13, 1.0, r), 1.0) < 1e-12

    def test_requires_positive_real_part(self):
        with pytest.raises(DomainError):
            sph.phi_asymptotic(SO12, 0.9j, 5.0)

    def test_beyond_float_range_raises(self):
        with pytest.raises(ConvergenceError):
            sph.phi_asymptotic(SO12, 10.0 + 0.1j, 75.0)


class TestCbNorm:
    def test_imaginary_axis(self):
        rng = np.random.default_rng(24)
        for m in (1, 2, 3):
            for _ in range(20):
                t = rng.uniform(-4, 4)
                assert abs(sph.cb_norm_lorentz(m, complex(0, t)) - 1.0) < 1e-12

    def test_real_axis(self):
        rng = np.random.default_rng(25)
        for m in (1, 2, 3):
            for _ in range(20):
                sigma = rng.uniform(-m / 2 * 0.999, m / 2 * 0.999)
                assert abs(sph.cb_norm_lorentz(m, complex(sigma, 0)) - 1.0) < 1e-12

    def test_corner_exactly_one(self):
        assert sph.cb_norm_lorentz(2, 1.0) == 1.0
        assert sph.cb_norm_lorentz(2, -1.0) == 1.0
        assert sph.cb_norm_lorentz(1, 0.5) == 1.0

    def test_not_a_multiplier(self):
        with pytest.raises(NotAMultiplierError):
            sph.cb_norm_lorentz(2, complex(1.0, 1.0))
        with pytest.raises(NotAMultiplierError):
            sph.cb_norm_lorentz(2, complex(1.7, 0.0))

    def test_at_least_one(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            s = complex(rng.uniform(-m / 2 * 0.99, m / 2 * 0.99), rng.uniform(-3, 3))
            assert sph.cb_norm_lorentz(m, s) >= 1.0 - 1e-12

    def test_pole_rate_near_boundary(self):
        eps = 1e-4
        ratio = sph.cb_norm_lorentz(2, complex(1 - eps / 2, 1.0)) / sph.cb_norm_lorentz(
            2, complex(1 - eps, 1.0)
        )
        assert 1.8 <= ratio <= 2.2

    def test_divergence_toward_boundary(self):
        for k in range(2, 7):
            val = sph.cb_norm_lorentz(2, complex(1 - 10.0**-k, 1.0))
            assert val > 10.0 ** (k - 1)

    def test_no_uniform_bound_on_strip(self):
        # the supremum over grids that creep toward the boundary grows
        # without bound at fixed nonzero t
        sups = []
        for k in range(1, 6):
            edge = 1.0 - 10.0**-k
            grid = np.linspace(0.0, edge, 25)
            sups.append(max(sph.cb_norm_lorentz(2, complex(sig, 1.0)) for sig in grid))
        assert all(b > a for a, b in zip(sups, sups[1:]))
        assert sups[-1] > 1e3 * sups[0]

    def test_cauchy_schwarz_equality(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            s = complex(rng.uniform(-m / 2 * 0.9, m / 2 * 0.9), rng.uniform(-2, 2))
            bound = math.sqrt(
                sph.bessel_vector_norm_sq(m, s)
                * sph.bessel_vector_norm_sq(m, -np.conjugate(s))
            )
            assert abs(sph.cb_norm_lorentz(m, s) - bound) < 1e-9


def mp_cb_norm(m, s):
    """The cb norm's Gamma expression at 30 digits."""
    with mpmath.workdps(30):
        h, s = mpmath.mpf(m) / 2, mpmath.mpc(s)
        sig, t = s.real, s.imag
        return float(mpmath.gamma(h + sig) * mpmath.gamma(h - sig)
                     * abs(mpmath.gamma(h + 1j * t)) ** 2
                     / (mpmath.gamma(h) ** 2 * abs(mpmath.gamma(h + s) * mpmath.gamma(h - s))))


class TestCbNormLargeT:
    """Beyond |t| of about 230, |G(m/2+it)|^2 ~ e^(-pi |t|) is below the
    float range; the norm is formed from log-Gamma ratios there."""

    POINTS = [(m, sig) for m in (1, 2, 3, 6, 8) for sig in (0.3, 0.45 * m)]

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    @pytest.mark.parametrize("t", [240.0, 300.0, 1e3, 1e4])
    def test_matches_mpmath(self, t):
        for m, sig in self.POINTS:
            for s in (complex(sig, t), complex(-sig, -t)):
                assert rel(sph.cb_norm_lorentz(m, s), mp_cb_norm(m, s)) < 1e-12

    def test_limit(self):
        # |G(m/2+it)|^2 / |G(m/2+s) G(m/2-s)| = 1 - sig^2 (m-1) / (2 t^2) + O(t^-4)
        t = 1e4
        for m, sig in self.POINTS:
            h = m / 2.0
            limit = (gamma(h + sig) * gamma(h - sig) / gamma(h) ** 2).real
            ratio = sph.cb_norm_lorentz(m, complex(sig, t)) / limit
            assert abs(ratio - 1.0 + sig**2 * (m - 1) / (2.0 * t * t)) < 1e-11
            if sig**2 * (m - 1) < 0.2:
                assert abs(ratio - 1.0) < 1e-9

    def test_continuous_across_log_switch(self):
        above = math.nextafter(64.0, 65.0)
        for m, sig in self.POINTS:
            for norm in (sph.cb_norm_lorentz, sph.bessel_vector_norm_sq):
                assert rel(norm(m, complex(sig, 64.0)), norm(m, complex(sig, above))) < 1e-13

    def test_bessel_vector_norm_sq(self):
        for m, sig in self.POINTS:
            s = complex(sig, 500.0)
            # cb(s) = sqrt(|v_s|^2 |v_(-conj s)|^2), as on the moderate range
            bound = math.sqrt(sph.bessel_vector_norm_sq(m, s)
                              * sph.bessel_vector_norm_sq(m, -s.conjugate()))
            assert rel(sph.cb_norm_lorentz(m, s), bound) < 1e-12
        assert abs(sph.bessel_vector_norm_sq(3, 500j) - 1.0) < 1e-13


class TestBesselVector:
    def test_conjugation_symmetry(self):
        for m, s, x in ((1, 0.3 + 0.8j, 0.7), (2, -0.5 + 1.2j, 1.0), (3, 0.2 - 0.4j, 2.5)):
            lhs = np.conjugate(sph.bessel_vector(m, s, x))
            rhs = sph.bessel_vector(m, np.conjugate(s), x)
            assert rel(lhs, rhs) < 1e-12

    def test_unit_norm_on_axis(self):
        # closed form says exactly 1; quadrature of the square confirms
        for m, t in ((1, 0.6), (2, 1.3)):
            s = complex(0.0, t)
            assert abs(sph.bessel_vector_norm_sq(m, s) - 1.0) < 1e-13
            half = m / 2.0
            quad = (
                2.0 ** (3 - m)
                * gamma(float(m)).real
                / (gamma(half).real ** 2 * abs(gamma(complex(half, t))) ** 2)
                * bessel_product_moment(s, np.conjugate(s), m - 1.0).real
            )
            assert abs(quad - 1.0) < 1e-6

    def test_value_against_direct_recomputation(self):
        # rebuild the m=2, s=0.4 profile from scratch: the constant and
        # an independent quadrature of the cosh-integral for K
        m, s, x = 2, 0.4, 1.0
        k_direct = integrate(
            lambda t: np.exp(-x * np.cosh(t)) * np.cosh(s * t),
            0.0,
            12.0,
            TIGHT,
        )
        const = math.sqrt(
            gamma(float(m)).real / (math.pi ** (m / 2) * gamma(m / 2.0).real)
        )
        expected = const * 2.0 ** (1 - m / 2) / gamma(m / 2.0 + s) * k_direct
        assert rel(sph.bessel_vector(m, s, x), expected) < 1e-10

    def test_norm_sq_quadrature_identity(self):
        for m, s in ((1, 0.3 + 0.7j), (2, 0.6 - 0.9j)):
            closed = sph.bessel_vector_norm_sq(m, s)
            half = m / 2.0
            quad = (
                2.0 ** (3 - m)
                * gamma(float(m)).real
                / (gamma(half).real ** 2 * abs(gamma(half + s)) ** 2)
                * bessel_product_moment(s, np.conjugate(s), m - 1.0).real
            )
            assert rel(closed, quad) < 1e-6

    def test_norm_sq_symmetries(self):
        # conjugation (t -> -t) is a pointwise symmetry; the sigma flip is
        # not (the |G(m/2+s)|^2 denominator breaks it, confirmed by
        # quadrature), but the geometric mean over +-sigma is even and
        # equals the multiplier norm.
        s = 0.45 + 1.3j
        m = 2
        base = sph.bessel_vector_norm_sq(m, s)
        assert rel(base, sph.bessel_vector_norm_sq(m, np.conjugate(s))) < 1e-13
        flipped = sph.bessel_vector_norm_sq(m, -np.conjugate(s))
        assert abs(base - flipped) > 0.1  # genuinely asymmetric in sigma
        mean = math.sqrt(base * flipped)
        assert rel(mean, sph.cb_norm_lorentz(m, s)) < 1e-12
        assert rel(mean, math.sqrt(
            sph.bessel_vector_norm_sq(m, -s)
            * sph.bessel_vector_norm_sq(m, s.conjugate())
        )) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sph.bessel_vector(1, 0.8, 1.0)  # outside the open strip
        with pytest.raises(DomainError):
            sph.bessel_vector(1, 0.2, 0.0)


class TestMultiplierL1Norm:
    def test_axis_value(self):
        assert abs(sph.multiplier_l1_norm(1, 0.9j) - 1.0) < 1e-6

    def test_matches_gamma_formula(self):
        a = sph.multiplier_l1_norm(2, 0.5 + 1.0j)
        b = sph.cb_norm_lorentz(2, 0.5 + 1.0j)
        assert rel(a, b) < 1e-6

    def test_matches_gamma_formula_at_large_order(self):
        # the kernel K_3.5(r) near r = 0 was cut short (8.4e-7 off)
        assert abs(sph.multiplier_l1_norm(8, 3.5) - sph.cb_norm_lorentz(8, 3.5)) < 1e-10

    def test_monotone_in_sigma(self):
        sigmas = [0.05, 0.15, 0.25, 0.35]
        values = [sph.multiplier_l1_norm(1, complex(sig, 1.0)) for sig in sigmas]
        assert all(b > a for a, b in zip(values, values[1:]))
        for sig, val in zip(sigmas, values):
            assert rel(val, sph.cb_norm_lorentz(1, complex(sig, 1.0))) < 1e-6

    @pytest.mark.parametrize("m,sigma", [(6, 2.9), (3, 1.45), (8, 3.9), (2, 0.99)])
    def test_close_to_the_strip_edge(self, m, sigma):
        # |K_s|^2 alone leaves the float range (or r underflows) where the
        # moment integrand, formed as |r^sig K_s|^2 r^(m-1-2 sig), is small
        for s in (complex(sigma, 0.0), complex(sigma, 0.4)):
            assert rel(sph.multiplier_l1_norm(m, s), sph.cb_norm_lorentz(m, s)) < 1e-6

    def test_large_imaginary_part_is_convergence_error(self):
        # raised at once, not after the kernel's doublings; the constant
        # underflowed to 0 at t = 240
        with pytest.raises(ConvergenceError):
            sph.multiplier_l1_norm(3, 0.3 + 240j)

    def test_large_imaginary_parts_hold_or_raise(self):
        # The kernels' rounding floor grows like e^(pi t / 2) against K_s;
        # a value is returned only within the tolerance (the panel kernel
        # returned 1.9e-8 off at t = 14; without the floor check the
        # trapezoid kernel is 2.8e-8 off at t = 20 and 2e16 at t = 40)
        for t in (0.0, 4.0, 8.0, 12.0):
            s = complex(0.3, t)
            assert rel(sph.multiplier_l1_norm(3, s), sph.cb_norm_lorentz(3, s)) < 1e-8
        for t in (14.0, 16.0, 20.0, 40.0, 60.0):
            s = complex(0.3, t)
            try:
                value = sph.multiplier_l1_norm(3, s)
            except ConvergenceError:
                continue
            assert rel(value, sph.cb_norm_lorentz(3, s)) < 1e-8

    def test_rounding_floor_onset(self):
        # on a 0.01 grid the floor raises at every t >= 13.24
        s = 0.3 + 12.9j
        assert rel(sph.multiplier_l1_norm(3, s), sph.cb_norm_lorentz(3, s)) < 1e-12
        with pytest.raises(ConvergenceError, match="rounding floor"):
            sph.multiplier_l1_norm(3, 0.3 + 13.5j)

    @pytest.mark.parametrize("m", [2, 3, 6, 8])
    def test_strip_grid(self, m):
        for sigma in (0.3, m / 2.0 - 0.1):
            for t in (-3.0, -1.5, 0.0, 1.0, 3.0):
                s = complex(sigma, t)
                assert rel(sph.multiplier_l1_norm(m, s), sph.cb_norm_lorentz(m, s)) < 1e-10

    def test_error_payload_is_in_norm_units(self):
        # the estimate was the raw moment, 4.2e-17, against a norm of 1.09
        s = 0.3 + 14j
        with pytest.raises(ConvergenceError) as excinfo:
            sph.multiplier_l1_norm(3, s)
        assert rel(excinfo.value.best_estimate, sph.cb_norm_lorentz(3, s)) < 1e-6
        assert 1e-8 < excinfo.value.achieved_error < 1e-6

    def test_too_slow_decay_is_convergence_error(self):
        # the coarsest grid would need about 2e8 panels
        with pytest.raises(ConvergenceError):
            sph.multiplier_l1_norm(2, 1.0 - 1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            sph.multiplier_l1_norm(1, 0.8)


class TestPhiOnNA:
    def test_reduces_to_phi_at_y_zero(self):
        v = sph.phi_on_na(1, 0.2 + 0.4j, 0.8, 0.0)
        w = complex(sph.phi(SO12, 0.2 + 0.4j, 0.8))
        assert abs(v - w) < 1e-8

    def test_m2_reduces_to_phi(self):
        v = sph.phi_on_na(2, 0.3 + 0.5j, 1.1, [0.0, 0.0])
        w = complex(sph.phi(SO13, 0.3 + 0.5j, 1.1))
        assert abs(v - w) < 1e-8

    def test_fourier_point_consistency(self):
        # r = 0: transform of the squared-kernel; cross-check against the
        # sphere-representation oracle lives in the geometry tests
        v = sph.phi_on_na(1, 0.25 + 0.45j, 0.0, 1.3)
        assert abs(v) <= 1.0 + 1e-9

    def test_even_in_r_at_y_zero(self):
        s = 0.2 + 0.6j
        forward = sph.phi_on_na(1, s, 0.9, 0.0)
        backward = sph.phi_on_na(1, s, -0.9, 0.0)
        assert abs(forward - backward) < 1e-8

    def test_riemann_lebesgue_trend(self):
        s = 0.1 + 0.5j
        small_y = abs(sph.phi_on_na(1, s, 0.0, 1.0))
        large_y = abs(sph.phi_on_na(1, s, 0.0, 50.0))
        assert large_y < 0.1 * small_y

    def test_large_y_small_for_m3(self):
        loose = QuadratureSpec(1e-6, 1e-8, 20000)
        val = sph.phi_on_na(3, 0.1 + 0.5j, 0.0, [25.0, 0.0, 0.0], loose)
        assert abs(val) < 1e-3

    def test_unconverged_refinement_raises(self, monkeypatch):
        # An error estimate of at least 1e-12 of the value cannot meet a
        # 1e-13 tolerance, whatever the rounding of the integrand, while the
        # rounding floor does (at 1e-17 the floor check raised at level 0).
        # The patch must reach the integral: level 0 and both bisections.
        s = 0.2 + 0.5j
        composite = specfun.composite
        levels = []

        def inflated(f, edges):
            levels.append(len(edges) - 1)
            sums, errors = composite(f, edges)
            return sums, errors + 1e-12 * np.abs(sums)

        monkeypatch.setattr(specfun, "composite", inflated)
        with pytest.raises(ConvergenceError) as excinfo:
            sph.phi_on_na(1, s, 0.7, 0.4, QuadratureSpec(relative_tolerance=1e-13))
        monkeypatch.undo()
        assert "did not converge" in str(excinfo.value)
        assert levels == [levels[0], 2 * levels[0], 4 * levels[0]]
        # the estimate carries the prefactor, like a returned value
        assert rel(excinfo.value.best_estimate, sph.phi_on_na(1, s, 0.7, 0.4)) < 1e-6
        assert excinfo.value.achieved_error < 1e-6

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("gap", [0.05, 0.01, 0.001])
    def test_close_to_the_strip_edge(self, m, gap):
        # x = e^v underflowed at the left end of the grid (DomainError), or
        # K_s overflowed there (ConvergenceError at m = 3, gap = 0.05); the
        # kernels are now formed as x^sig K_s(x)
        s = m / 2.0 - gap
        group = groups.params_for("so0", m + 1)
        for r in (0.5, 1.0):
            v = sph.phi_on_na(m, s, r, [0.0] * m)
            assert abs(v - complex(sph.phi(group, s, r))) < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_panel_budget_near_the_strip_edge(self, m):
        # about 190,000 panels and 180 MB arrays were built here
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            sph.phi_on_na(m, m / 2.0 - 1e-4, 0.5, [0.0] * m)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("t", [10.0, 14.0, 20.0])
    def test_large_imaginary_part_holds_or_raises(self, t):
        # the panel kernel returned 2.2e-7 and 1.5e-4 off at t = 10 and 14
        # (a right end too close in, then the kernels' rounding floor); the
        # floor is measured against the integral of |integrand|
        s = complex(0.3, t)
        want = sph.phi_lorentz_hyp2(1, s, 0.7)
        try:
            value = sph.phi_on_na(1, s, 0.7, 0.0)
        except ConvergenceError:
            return
        assert rel(value, want) < 1e-8

    def test_rounding_floor_onset(self):
        # on a 0.01 grid the floor raises at 12 points in [7.71, 8.54] and
        # at every t >= 9.9
        s = 0.3 + 7.5j
        assert rel(sph.phi_on_na(1, s, 0.7, 0.0), sph.phi_lorentz_hyp2(1, s, 0.7)) < 1e-12
        with pytest.raises(ConvergenceError, match="rounding floor"):
            sph.phi_on_na(1, 0.3 + 10j, 0.7, 0.0)

    @pytest.mark.parametrize("m, y", [(1, 0.6), (2, [0.36, 0.48]), (3, [0.2, 0.4, 0.4])])
    def test_off_the_axis_is_phi_at_the_composed_distance(self, m, y):
        # a_r n_y has distance d from the origin, cosh d = cosh r + |y|^2 e^r / 2;
        # |y| = 0.6 in each case
        s, r = 0.2 + 0.3j, 0.4
        d = math.acosh(math.cosh(r) + 0.6**2 * math.exp(r) / 2.0)
        want = complex(sph.phi(groups.params_for("so0", m + 1), s, d))
        assert rel(sph.phi_on_na(m, s, r, y), want) < 1e-12

    # phi_on_na(2, 0.3 + 0.5i, 2, (y, 0)) from one len(lam) x n cosine
    # matrix, n sized from the largest |lam| of the call
    ONE_MATRIX = {0.4: 0.4395462088672546 + 0.10866716180597395j,
                  3.0: 0.04296212969532772 + 0.07568156739322784j,
                  30.0: -0.0035306726989405056 - 0.0008368905579961828j}

    def test_circle_grid_per_chunk_keeps_the_values(self):
        for y, want in self.ONE_MATRIX.items():
            assert rel(sph.phi_on_na(2, 0.3 + 0.5j, 2.0, (y, 0.0)), want) < 1e-13

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_circle_grid_per_chunk_bounds_the_memory(self):
        # the one matrix peaked at 227 MB RSS at y = 30.  The peak RSS of a
        # fresh process, in kB, is its VmHWM: ru_maxrss keeps the forking
        # test process's peak across exec
        script = textwrap.dedent("""
            from sphmult import spherical
            print(repr(spherical.phi_on_na(2, 0.3 + 0.5j, 2.0, (30.0, 0.0))))
            with open("/proc/self/status") as status:
                print(next(line.split()[1] for line in status if line.startswith("VmHWM")))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True).stdout.split()
        assert rel(complex(out[0]), self.ONE_MATRIX[30.0]) < 1e-13
        assert int(out[1]) < 80 * 1024

    def test_angular_factor_closed_form_at_m3(self):
        # the Gauss-Legendre sum it replaces was 5e-14 of the area off at lam = 4000
        lam = np.array([0.0, 1e-9, 0.7, 40.0, 4000.0])
        want = [4.0 * math.pi] * 2 + [4.0 * math.pi * math.sin(x) / x for x in lam[2:]]
        assert np.allclose(sph._angular_factor(3, lam), want, rtol=0.0, atol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            sph.phi_on_na(4, 0.2, 0.0, [0.0] * 4)
        with pytest.raises(DomainError):
            sph.phi_on_na(1, 0.7, 0.0, 1.0)  # outside strip


class TestCesaroExtract:
    def test_pure_frequency_match(self):
        phi_map = lambda rs: 3.0 * np.exp(-2j * rs)
        assert abs(sph.cesaro_extract(phi_map, 2.0, 10_000) - 3.0) < 1e-2

    def test_pure_frequency_mismatch(self):
        phi_map = lambda rs: 3.0 * np.exp(-2j * rs)
        assert abs(sph.cesaro_extract(phi_map, 1.0, 10_000)) < 1e-2

    def test_decaying_part_averages_out(self):
        phi_map = lambda rs: np.exp(-1j * rs) + np.exp(-rs)
        assert abs(sph.cesaro_extract(phi_map, 1.0, 10_000) - 1.0) < 1e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            sph.cesaro_extract(lambda r: 1.0, 0.0, 0)
