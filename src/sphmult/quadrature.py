"""Gauss-Legendre quadrature on 15-point panels.

The Bessel-kernel integrals, ``cesaro_extract``, ``lorentz.fhat_check``
and the checks in ``verify`` run on 15-point panels.  The K_nu kernel (in
``specfun``) and ``spherical.phi_lorentz_integral`` are nested trapezoid
sums, and ``lorentz``'s sphere rule is a product rule of its own.
``composite`` sums fixed panels and estimates its error from the degree-7
rule embedded in their nodes, scaled by QUADPACK's factor.  ``integrate``
bisects panels adaptively, with the per-panel error taken as the
difference between a panel estimate and the sum of its two halves; it is
the adaptive oracle of ``verify`` and the tests.  It calls the integrand
once to seed (eight panels and their sixteen halves, 360 nodes) and once
per bisection (the four new quarter panels, 60 nodes).
"""

from __future__ import annotations

import functools
import heapq
import importlib
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError


class _DeferredNumpy:
    """Stands in for numpy in one module until numpy's first use."""

    __slots__ = ("_owner",)

    def __init__(self, owner: str):
        self._owner = owner

    def __getattr__(self, name):
        numpy = importlib.import_module("numpy")
        sys.modules[self._owner].np = numpy
        return getattr(numpy, name)


def _numpy(owner: str):
    """numpy for the module named ``owner``, imported on first use.

    ``specfun`` and ``spherical`` hold closed forms as well as quadratures,
    and only the quadratures and the K_nu kernel run numpy.  Deferring its
    import (about 120 ms of a cold start) lets ``sphmult eval`` on SU, Sp
    and F4 and ``sphmult norm-table`` finish without it.  A numpy already
    imported is returned as it is.  Otherwise the owner's ``np`` is a
    stand-in whose first attribute access runs ``import numpy`` and rebinds
    ``np`` to the module, so later calls pay nothing.  The import system
    does the loading: threads that reach it at once wait for one import, and
    a failed import raises its ``ImportError`` and is retried on the next use.
    """
    if "numpy" in sys.modules:
        return importlib.import_module("numpy")
    return _DeferredNumpy(owner)


np = _numpy(__name__)


@functools.cache
def _gauss_legendre(n: int = 15):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


@functools.cache
def _embedded_weights(n: int = 15):
    """The interpolatory rule on the even-index nodes of the n-point rule, 0 on
    the others: at n = 15 of degree 7 on 8 nodes, all weights positive."""
    even, weights = _gauss_legendre(n)[0][::2], np.zeros(n)
    weights[::2] = np.linalg.solve(np.polynomial.legendre.legvander(even, even.size - 1).T,
                                   np.eye(even.size)[0] * 2.0)  # int P_k = 2 [k = 0]
    return weights


# e-folds by which every truncated tail is pushed out past its cut, so that
# the discarded tail sits safely below the tolerance it is cut at.
_TRUNCATION_MARGIN = 5.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for a numerical integral."""

    relative_tolerance: float = 1e-8
    absolute_tolerance: float = 1e-14
    max_panels: int = 20000

    def __post_init__(self):
        # nan <= 0 is False, so finiteness is checked first: a NaN or
        # infinite tolerance would accept the unrefined seed estimate.
        tolerances = (self.relative_tolerance, self.absolute_tolerance)
        if not all(math.isfinite(tol) and tol > 0 for tol in tolerances):
            raise DomainError("quadrature tolerances must be finite and positive")
        if self.max_panels < 1:
            raise DomainError("max_panels must be at least 1")

    @property
    def truncation_depth(self) -> float:
        """e-folds of decay after which a tail is dropped: -log(absolute
        tolerance) plus a margin of 5."""
        return -math.log(self.absolute_tolerance) + _TRUNCATION_MARGIN


DEFAULT_SPEC = QuadratureSpec()


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of every panel, flattened, and the panel half-widths."""
    halves = 0.5 * (edges[1:] - edges[:-1])
    mids = 0.5 * (edges[1:] + edges[:-1])
    nodes = _gauss_legendre()[0]
    return (mids[:, None] + halves[:, None] * nodes[None, :]).ravel(), halves


def _estimates(f: Callable, *edge_runs: np.ndarray) -> list:
    """Gauss-Legendre estimates on the panels of each run of edges, in order,
    from one call of the vectorized f."""
    built = [_panel_nodes(edges) for edges in edge_runs]
    xs = np.concatenate([nodes for nodes, _ in built])
    halves = np.concatenate([h for _, h in built])
    nodes, weights = _gauss_legendre()
    ys = np.asarray(f(xs), dtype=complex).reshape(len(halves), len(nodes))
    # np.dot per panel, not a matrix product, which sums in another order:
    # a panel's value must not depend on how many panels share the call.
    return [h * np.dot(weights, y) for h, y in zip(halves, ys)]


def integrate(f: Callable, a: float, b: float,
              spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Integrate ``f``, which maps a numpy array of nodes to their values,
    over the finite interval [a, b] to the tolerances in ``spec``; a > b
    gives minus the integral over [b, a].

    ``f`` is called 1 + R times for R bisections: once on the 360 nodes
    of the eight seed panels and their halves, then once on the 60 nodes
    of the four quarter panels of each bisected panel, whose halves
    become the children's coarse estimates.

    Raises DomainError at an endpoint that is not finite, and
    ConvergenceError (with the best estimate attached) when the panel
    budget runs out before the error estimate meets the tolerance.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if a == b:
        return 0.0 + 0.0j
    # min_width below, the refinement floor, assumes a < b
    flip = a > b
    if flip:
        a, b = b, a

    # Seed with a handful of panels so a feature missed by one coarse
    # panel cannot fool the global error estimate.
    edges = np.linspace(a, b, 9)
    fine_edges = np.empty(17)
    fine_edges[0::2] = edges
    fine_edges[1::2] = 0.5 * (edges[:-1] + edges[1:])
    seeds = _estimates(f, edges, fine_edges)
    heap = []
    counter = 0
    total = 0.0 + 0.0j
    total_err = 0.0
    n_panels = 0
    min_width = (b - a) * 1e-14

    def push(lo, hi, coarse, left, right):
        nonlocal counter, total, total_err, n_panels
        fine = left + right
        err = abs(coarse - fine)
        if hi - lo < min_width:
            err = 0.0  # cannot usefully refine further
        total += fine
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, fine, left, right))
        counter += 1
        n_panels += 3

    for k in range(8):
        push(edges[k], edges[k + 1], seeds[k], seeds[8 + 2 * k], seeds[9 + 2 * k])

    while total_err > max(spec.relative_tolerance * abs(total), spec.absolute_tolerance):
        if n_panels >= spec.max_panels:
            raise ConvergenceError(
                "quadrature panel budget exhausted",
                best_estimate=-total if flip else total,
                achieved_error=total_err,
            )
        neg_err, _, lo, hi, fine, left, right = heapq.heappop(heap)
        if -neg_err <= 0.0:
            break  # every remaining panel is at the refinement floor
        total -= fine
        total_err += neg_err  # removes the popped panel's error
        mid = 0.5 * (lo + hi)
        quarters = _estimates(f, np.array([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi]))
        push(lo, mid, left, *quarters[:2])
        push(mid, hi, right, *quarters[2:])

    return complex(-total if flip else total)


def composite(f: Callable, edges: np.ndarray):
    """Non-adaptive composite Gauss-Legendre of a vectorized f over the panel
    edges and its error estimate: each a number, or one per row where f
    returns a stack of rows.  A panel's difference d from the degree-7 rule
    on its even nodes measures that rule's error, far above the 15-point
    one's, so d is scaled by QUADPACK's min(1, (200 d / int |f - mean|)^1.5)."""
    nodes, weights = _gauss_legendre()
    xs, halves = _panel_nodes(edges)
    ys = np.asarray(f(xs), dtype=complex)
    ys = ys.reshape(ys.shape[:-1] + (len(halves), len(nodes)))
    panels = ys @ weights
    sums = np.sum(halves * panels, axis=-1)
    diffs = halves * np.abs(ys @ (weights - _embedded_weights()))
    spread = halves * (np.abs(ys - 0.5 * panels[..., None]) @ weights)  # int |f - mean|
    with np.errstate(divide="ignore", invalid="ignore"):  # fmin drops the nan of 0 / 0
        errors = np.sum(diffs * np.fmin(1.0, 200.0 * diffs / spread) ** 1.5, axis=-1)
    return (complex(sums), float(errors)) if sums.ndim == 0 else (sums, errors)


def _panel_width(rate: float, base_width: float) -> float:
    """2 pi / (1 + |rate|), one period of the rate plus one, at most base_width."""
    return min(base_width, 2.0 * math.pi / (1.0 + abs(rate)))


def oscillation_edges(a: float, b: float, t: float, lam: float = 0.0,
                      base_width: float = 0.9) -> np.ndarray:
    """Panel edges on [a, b] sized against the oscillation rate t + lam e^x
    (radians/unit): each panel is at most base_width and one period of the
    rate at its left edge wide, half the two periods over which 15 points
    integrate e^(i w x) to 5e-16 of the width.  At lam = 0 panels are equal."""
    if not lam:
        return np.linspace(a, b, math.ceil((b - a) / _panel_width(t, base_width)) + 1)
    edges = [a]
    while edges[-1] < b:
        edges.append(min(b, edges[-1] + _panel_width(t + lam * math.exp(edges[-1]), base_width)))
    return np.array(edges)
