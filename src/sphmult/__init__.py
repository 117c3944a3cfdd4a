"""Spherical functions on rank-one Lorentz groups and their multiplier norms.

The package provides:

* ``specfun``      -- Gamma/Beta/2F1, modified Bessel K of complex order,
                      and the Gamma closed form of the K-product moment
                      integral, each paired with a quadrature oracle;
* ``groups``       -- parameter blocks for the four rank-one families and
                      classification of spectral parameters against the
                      boundedness strip;
* ``spherical``    -- spherical function evaluation, Harish-Chandra
                      asymptotics, the completely bounded multiplier norm
                      on the Lorentz groups, and Bessel-kernel vectors;
* ``lorentz``      -- concrete Lorentz matrices, the sphere action and
                      its cocycle, stereographic transport, and
                      representation-coefficient quadratures;
* ``tree``         -- reduced words in free products, homogeneous-tree
                      spheres, radialization and radial convolution;
* ``cli``          -- the ``sphmult`` command line front end.

``errors``, ``groups`` and ``tree`` need only the standard library.  The
names exported from ``quadrature``, ``specfun`` and ``spherical`` are
loaded on first use, so ``import sphmult`` does not import numpy; each
``sphmult`` subcommand imports only the modules it runs.  Those three
modules defer ``import numpy`` to its first use (``quadrature._numpy``),
so only quadratures and the K_nu kernel import it: ``sphmult eval`` on
``so0`` and ``sphmult verify`` do, ``sphmult eval`` on ``su``, ``sp`` and
``f4``, ``norm-table`` and ``tree`` do not.
"""

from importlib import import_module

from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    InvariantError,
    NotAMultiplierError,
    PoleError,
    SphmultError,
)
from .groups import (
    Family,
    RankOneGroup,
    SpectralParameter,
    StripPosition,
    classify,
    params_for,
)

# The numeric modules are served on first use (PEP 562) and cached here.
_LAZY_MODULES = {
    "quadrature": ("DEFAULT_SPEC", "QuadratureSpec", "integrate"),
    "specfun": ("bessel_k", "bessel_product_moment", "beta", "gamma", "hyp2f1",
                "weber_schafheitlin_rhs"),
    "spherical": ("EvalMethod", "SphericalValue", "bessel_vector",
                  "bessel_vector_norm_sq", "c_function", "cb_norm_lorentz",
                  "cesaro_extract", "multiplier_l1_norm", "phi", "phi_asymptotic",
                  "phi_lorentz_hyp2", "phi_lorentz_integral", "phi_on_na"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CapacityError",
    "ConvergenceError",
    "DomainError",
    "InvariantError",
    "NotAMultiplierError",
    "PoleError",
    "SphmultError",
    "Family",
    "RankOneGroup",
    "SpectralParameter",
    "StripPosition",
    "classify",
    "params_for",
    "DEFAULT_SPEC",
    "QuadratureSpec",
    "integrate",
    "bessel_k",
    "bessel_product_moment",
    "beta",
    "gamma",
    "hyp2f1",
    "weber_schafheitlin_rhs",
    "EvalMethod",
    "SphericalValue",
    "bessel_vector",
    "bessel_vector_norm_sq",
    "c_function",
    "cb_norm_lorentz",
    "cesaro_extract",
    "multiplier_l1_norm",
    "phi",
    "phi_asymptotic",
    "phi_lorentz_hyp2",
    "phi_lorentz_integral",
    "phi_on_na",
]

__version__ = "0.1.0"
