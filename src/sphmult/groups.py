"""Parameter bookkeeping for the rank-one group families.

Each family is the isometry group of a rank-one symmetric space over one
of the four normed division algebras; the root multiplicities (p, q)
determine everything this package needs through m = p + 2q and
m0 = p + 2.  Spectral parameters s = sigma + i t are classified against
the strip |sigma| < m/2 on which the spherical functions are bounded
multipliers.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError

_BOUNDARY_TOL = 1e-12


class Family(Enum):
    SO0 = "so0"
    SU = "su"
    SP = "sp"
    F4 = "f4"


# Real dimension of the underlying division algebra.
_DIM = {Family.SO0: 1, Family.SU: 2, Family.SP: 4, Family.F4: 8}


@dataclass(frozen=True)
class RankOneGroup:
    family: Family
    n: int
    p: int
    q: int
    m: int
    m0: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.m < 1:
            raise DomainError("invalid root multiplicities")
        if self.m != self.p + 2 * self.q or self.m0 != self.p + 2:
            raise DomainError("inconsistent derived parameters")

    def __str__(self):
        if self.family is Family.F4:
            return "F4(-20)"
        name = {Family.SO0: "SO0", Family.SU: "SU", Family.SP: "Sp"}[self.family]
        return f"{name}(1,{self.n})"


def params_for(family: Family | str, n: int | None = None) -> RankOneGroup:
    """Build the parameter block for a family (and rank parameter n).

    The exceptional family takes no n; the classical families require
    n >= 2.  p = (n-1) * dim, q = dim - 1 where dim is the real dimension
    of the division algebra, and m = p + 2q, m0 = p + 2.
    """
    if isinstance(family, str):
        try:
            family = Family(family.lower())
        except ValueError as exc:
            raise DomainError(f"unknown family {family!r}") from exc
    if family is Family.F4:
        p, q = 8, 7
        n = 1
    else:
        if n is None:
            raise DomainError(f"family {family.value} requires n")
        n = int(n)
        if n < 2:
            raise DomainError("classical families require n >= 2")
        d = _DIM[family]
        p = (n - 1) * d
        q = d - 1
    return RankOneGroup(family=family, n=n, p=p, q=q, m=p + 2 * q, m0=p + 2)


class StripPosition(Enum):
    INTERIOR = "interior"
    BOUNDARY_CONSTANT = "boundary_constant"
    BOUNDARY_NONTRIVIAL = "boundary_nontrivial"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class SpectralParameter:
    """s = sigma + i t; components may be exact rationals."""

    sigma: float | Fraction
    t: float | Fraction = 0

    @classmethod
    def from_complex(cls, s: complex) -> "SpectralParameter":
        s = complex(s)
        return cls(sigma=s.real, t=s.imag)

    @property
    def value(self) -> complex:
        return complex(float(self.sigma), float(self.t))

    def __complex__(self):
        return self.value


def as_spectral(s) -> SpectralParameter:
    """s as a SpectralParameter; DomainError for a number that is not finite."""
    if isinstance(s, SpectralParameter):
        return s
    if isinstance(s, numbers.Complex):
        z = complex(s)
        if not cmath.isfinite(z):
            raise DomainError(f"spectral parameter {z} is not finite")
        return SpectralParameter(z.real, z.imag)
    raise DomainError(f"cannot interpret {s!r} as a spectral parameter")


def _offset(x, m: int):
    """|x| - m/2 and the window in which it counts as zero: exact (0) for
    rationals, 1e-12 for floats."""
    if isinstance(x, numbers.Rational):
        return abs(Fraction(x)) - Fraction(m, 2), 0
    return abs(float(x)) - m / 2.0, _BOUNDARY_TOL


def classify(s, m: int) -> StripPosition:
    """Position of s relative to the strip |Re s| < m/2.

    Exact comparisons are used when the components are rationals; floats
    fall back to a 1e-12 window around the boundary, since the
    classification is discontinuous there.
    """
    sp = as_spectral(s)
    gap, tol = _offset(sp.sigma, m)
    if abs(gap) <= tol:
        t_gap, t_tol = _offset(sp.t, 0)
        if abs(t_gap) <= t_tol:
            return StripPosition.BOUNDARY_CONSTANT
        return StripPosition.BOUNDARY_NONTRIVIAL
    return StripPosition.INTERIOR if gap < 0 else StripPosition.EXTERIOR
