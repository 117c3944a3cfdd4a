"""Family parameter table and strip classification."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sphmult import groups
from sphmult.errors import DomainError
from sphmult.groups import Family, SpectralParameter, StripPosition


class TestParamsFor:
    @pytest.mark.parametrize(
        "family,n,expected",
        [
            ("so0", 2, (1, 0, 1, 3)),
            ("so0", 3, (2, 0, 2, 4)),
            ("so0", 5, (4, 0, 4, 6)),
            ("su", 2, (2, 1, 4, 4)),
            ("su", 3, (4, 1, 6, 6)),
            ("sp", 2, (4, 3, 10, 6)),
            ("sp", 4, (12, 3, 18, 14)),
        ],
    )
    def test_table_rows(self, family, n, expected):
        g = groups.params_for(family, n)
        assert (g.p, g.q, g.m, g.m0) == expected

    def test_exceptional_row(self):
        g = groups.params_for("f4")
        assert (g.p, g.q, g.m, g.m0) == (8, 7, 22, 10)

    def test_enum_argument(self):
        assert groups.params_for(Family.SU, 2) == groups.params_for("su", 2)

    def test_rank_too_small(self):
        with pytest.raises(DomainError):
            groups.params_for("so0", 1)
        with pytest.raises(DomainError):
            groups.params_for("sp", 0)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            groups.params_for("e8", 2)

    @pytest.mark.parametrize("family", ["so0", "su", "sp"])
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_derived_identities(self, family, n):
        g = groups.params_for(family, n)
        assert g.m == g.p + 2 * g.q
        assert g.m0 == g.p + 2
        assert g.m0 <= g.m + 2
        assert (g.m0 == g.m + 2) == (family == "so0")

    def test_f4_strictly_inside(self):
        g = groups.params_for("f4")
        assert g.m0 < g.m + 2


class TestClassify:
    def test_non_finite_rejected(self):
        for s in (float("nan"), complex(0.3, float("inf")), complex(float("-inf"), 0.0)):
            with pytest.raises(DomainError):
                groups.classify(s, 2)

    def test_examples(self):
        assert groups.classify(complex(0, 3), 2) is StripPosition.INTERIOR
        assert groups.classify(complex(1, 0), 2) is StripPosition.BOUNDARY_CONSTANT
        assert groups.classify(complex(1, 1), 2) is StripPosition.BOUNDARY_NONTRIVIAL
        assert groups.classify(complex(1.5, 0), 2) is StripPosition.EXTERIOR

    def test_negative_side(self):
        assert groups.classify(complex(-1, 0), 2) is StripPosition.BOUNDARY_CONSTANT
        assert groups.classify(complex(-1, -2), 2) is StripPosition.BOUNDARY_NONTRIVIAL
        assert groups.classify(complex(-3, 0), 2) is StripPosition.EXTERIOR

    def test_float_boundary_window(self):
        assert groups.classify(complex(1 + 1e-13, 0), 2) is StripPosition.BOUNDARY_CONSTANT
        assert groups.classify(complex(1 + 1e-9, 0), 2) is StripPosition.EXTERIOR

    def test_exact_rational_boundary(self):
        on_edge = SpectralParameter(Fraction(1, 2), Fraction(0))
        assert groups.classify(on_edge, 1) is StripPosition.BOUNDARY_CONSTANT
        hair_inside = SpectralParameter(Fraction(10**15 - 1, 2 * 10**15), Fraction(0))
        assert groups.classify(hair_inside, 1) is StripPosition.INTERIOR
        hair_outside = SpectralParameter(Fraction(10**15 + 1, 2 * 10**15), Fraction(7))
        assert groups.classify(hair_outside, 1) is StripPosition.EXTERIOR

    def test_spectral_parameter_value(self):
        s = SpectralParameter(Fraction(1, 4), 1.5)
        assert complex(s) == complex(0.25, 1.5)
        assert SpectralParameter.from_complex(0.3 - 2j).t == -2.0

    @given(
        sigma=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
        t=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
        m=st.integers(min_value=1, max_value=22),
    )
    def test_partition_exact(self, sigma, t, m):
        s = SpectralParameter(sigma, t)
        position = groups.classify(s, m)
        half = Fraction(m, 2)
        if abs(sigma) < half:
            assert position is StripPosition.INTERIOR
        elif abs(sigma) == half:
            expected = (
                StripPosition.BOUNDARY_CONSTANT
                if t == 0
                else StripPosition.BOUNDARY_NONTRIVIAL
            )
            assert position is expected
        else:
            assert position is StripPosition.EXTERIOR

    @given(
        sigma=st.floats(min_value=-12, max_value=12, allow_nan=False),
        t=st.floats(min_value=-12, max_value=12, allow_nan=False),
        m=st.integers(min_value=1, max_value=22),
    )
    def test_exactly_one_position_floats(self, sigma, t, m):
        position = groups.classify(complex(sigma, t), m)
        assert position in StripPosition
