"""The four benchmark workloads: inputs, the timed op, and its check.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  Inputs come only from the seed.  For each
workload:

* ``generate(seed)`` builds the distinct ops of one pass; the run cycles
  through seeded shuffles of this list;
* ``warmup()`` calls each public function once on inputs outside that
  list;
* ``run(op)`` is the timed call into sphmult (or, for ``cli``, one child
  process);
* ``summary(op, result)`` reduces the result to a small comparable value
  outside the timed region; a later execution of the same op must give
  the same summary;
* ``check(op, summary, peer)`` compares a summary with its reference
  after the timed run and returns ``Verdict``.

Each op may carry ``region``: the known failure region it lies in
(``FAILURE_REGIONS``), which excuses one exception class raised from one
site and nothing else.  Inputs are never chosen to avoid those regions.
Without mpmath, outputs whose only reference is an mpmath closed form
are unchecked and no accuracy digits are reported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref

# Reference tolerances, relative to each quantity's envelope, each taken
# from the package's own acceptance suite for the same kind of quantity:
# special functions 1e-10 (verify: hyp2f1-log-form, bessel checks); routes
# to phi_s 1e-8 (criterion 1); the asymptotic form of phi_s 1e-4
# (criterion 6); quadratures 1e-6 (criteria 2 and 8); the two kernel
# routes to phi on NA 1e-5 (criterion 7).
SPECIAL_TOL = 1e-10
PHI_TOL = 1e-8
ASYMPTOTIC_TOL = 1e-4
QUAD_TOL = 1e-6
PAIR_TOL = 1e-5


@dataclass(frozen=True)
class Region:
    """A failure known at the benchmark's baseline, and the one failure it excuses.

    A region with ``raises`` excuses only that exception class raised from
    ``site`` (the innermost sphmult function on the traceback) by an op
    tagged with the region.  A region without ``raises`` excuses only the
    mismatch its workload's check names (``Verdict.known``).
    """

    where: str
    raises: str | None = None
    site: str | None = None

    def excuses(self, failure: str, site: str | None) -> bool:
        return self.raises is not None and failure == self.raises and site == self.site


FAILURE_REGIONS = {
    "integer_s_near_unit": Region(
        "2F1 with integer c - a - b (s in {1, 2} and within 1e-8 of it) close to unit "
        "argument: phi on SU/Sp/F4, phi_lorentz_hyp2 on SO0",
        "ConvergenceError", "specfun._hyp2f1_zw"),
    "imaginary_axis_k_it": Region(
        "K_(it) near its zeros at small x: the cosh-integral refinements agree only to "
        "rounding noise against the 1e-12 relative target",
        "ConvergenceError", "specfun.bessel_k"),
    "bessel_k_large_x": Region(
        "K_nu(x) for x > 10: the cosh-integral truncation is set from exp(-x) rather than "
        "relative to it, so accuracy falls to ~8 digits near x = 15; a bessel_k_many grid "
        "whose every miss lies at x > 10"),
    "near_integer_separation": Region(
        "2F1 whose connection formula at unit argument sees a separation d = c - a - b "
        "(s for phi_s, b - a after the Pfaff map) within 0.05 of a nonzero integer but "
        "beyond the 1e-8 integer cut-off: G(d) and G(-d) cancel, and digits fall as d "
        "nears the integer (to ~7 at |d - n| = 1e-4, to ~3 at 1e-7 on phi_s); a miss of "
        "the 2F1 routes only"),
}
BESSEL_LARGE_X = 10.0
# The band of near-integer separations in which the 2F1 connection formula is
# known to lose digits: below the package's 1e-8 integer cut-off it takes
# another path; misses were seen up to |d - n| = 4e-3 and none beyond 1e-2.
NEAR_INTEGER_BAND = (1e-8, 0.05)
# The routes that evaluate 2F1, the only ones a near-integer separation excuses.
HYP2F1_ROUTES = frozenset({"hyp2f1", "phi.hypergeometric_stable",
                           "phi.hypergeometric_direct", "phi_lorentz_hyp2"})


def near_integer_separation(d: complex) -> bool:
    """Whether ``d`` lies in NEAR_INTEGER_BAND around a nonzero integer."""
    n = round(d.real)
    lo, hi = NEAR_INTEGER_BAND
    return n != 0 and lo <= abs(d - n) < hi


def hyp2f1_separation(a: float, b: float, c: float, z: float) -> complex | None:
    """The separation the connection formula sees for real z, or None when
    ``hyp2f1`` sums its power series instead (|z| <= 0.75 after any Pfaff map)."""
    if z < 0.0:
        a, b, z = a, c - b, z / (z - 1.0)  # Pfaff: (a, b; c; z) -> (a, c - b; c; z/(z-1))
    return complex(c - a - b) if z > 0.75 else None

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    key: int
    kind: str
    params: tuple
    region: str | None = None
    label: str = ""


@dataclass
class Verdict:
    ok: bool
    digits: list = field(default_factory=list)  # (route, digits) pairs
    note: str = ""
    known: str | None = None  # the known failure region a miss lies in
    checked: bool = True  # False when the op's only reference needs mpmath


def _unchecked() -> Verdict:
    return Verdict(True, note="unchecked: mpmath is not installed", checked=False)


def _found(route, value, want, envelope) -> list:
    """The (route, digits) entry of one checked value; none without mpmath."""
    return [(route, ref.digits(value, want, envelope))] if ref.available() else []


def _rel_ok(value, reference, envelope, tol) -> bool:
    return abs(complex(value) - complex(reference)) <= tol * abs(complex(envelope))


def _bands(rng: random.Random, count: int, hi: float) -> list[float]:
    """One uniform draw from each of ``count`` equal bands of (0, hi]."""
    return [hi * (i + 1.0 - rng.random()) / count for i in range(count)]


# ---------------------------------------------------------------------------
# spectral: the closed-form path plus its quadrature oracle.


class Spectral:
    name = "spectral"
    tail_pct = 95.0
    FAMILIES = [("so0", 2), ("so0", 3), ("so0", 5), ("su", 2), ("su", 3), ("sp", 2), ("f4", None)]
    INTEGER_SIGMAS = (1.0, 2.0)
    OFFSETS = (-1e-9, 0.0, 1e-9)
    HYP2F1_PER_REGION = 20

    def generate(self, seed: int) -> list[Op]:
        from sphmult import groups

        rng = random.Random(f"spectral:{seed}")
        ops: list[Op] = []

        def add(kind, params, region=None, label=""):
            ops.append(Op(len(ops), kind, params, region, label))

        for family, n in self.FAMILIES:
            group = groups.params_for(family, n)
            half = group.m / 2.0
            for r in _bands(rng, 32, 25.0):
                s = complex(rng.uniform(-1.1, 1.1) * half, rng.uniform(-4.0, 4.0))
                add("point", (group, s, r), label=f"{group} generic")
            for r in _bands(rng, 12, 25.0):
                add("point", (group, complex(rng.uniform(-1.1, 1.1) * half, 0.0), r),
                    label=f"{group} real")
            for r in _bands(rng, 8, 25.0):
                t = rng.uniform(0.05, 4.0) * rng.choice((-1.0, 1.0))
                add("point", (group, complex(0.0, t), r), label=f"{group} imaginary")
            # Fixed for every seed: just past r = 8, where the asymptotic form
            # takes over earliest and its neglected e^(-2r) terms are largest
            # (worst at Re s = 2.5 on F4(-20)), and the corner of the s-range.
            for s in (complex(2.5, 0.0), complex(1.1 * half, 4.0)):
                add("point", (group, s, 8.0 + 1e-6), label=f"{group} edge")
            # The same integer-s grid for every seed: the midpoints of 18 equal
            # bands of (0, 25], each of the 6 integer-s values taking one band
            # from each third of the range.  Whether such a point converges
            # flips at a radius that depends on s (about 3.5 on SO0(1,2)),
            # and the cost of the point with it (0.5 ms or 4.5 ms), so seeded
            # radii here would make a seed's cost depend on which side of the
            # flip its draws fall.
            values = [sigma + offset for sigma in self.INTEGER_SIGMAS for offset in self.OFFSETS]
            radii = [25.0 * (i + 0.5) / (3 * len(values)) for i in range(3 * len(values))]
            for j, sigma in enumerate(values):
                for k in range(3):
                    add("point", (group, complex(sigma, 0.0), radii[k * len(values) + j]),
                        "integer_s_near_unit", label=f"{group} integer s")
        # Few enough that the fast ops (direct 2F1, integer s, imaginary axis)
        # stay well under half of a pass (43 %): near half, the median latency
        # sits on the step up to the generic points, where the 48th and 52nd
        # percentiles differ by 25 %.
        for _ in range(self.HYP2F1_PER_REGION):
            a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            c = b + rng.uniform(0.2, 3.0)
            add("hyp2f1", (a, b, c, rng.uniform(-20.0, -0.76)), label="hyp2f1 pfaff")
            add("hyp2f1", (a, b, c, rng.uniform(-0.75, 0.75)), label="hyp2f1 series")
            add("hyp2f1", (a, b, c, rng.uniform(0.76, 0.999999)), label="hyp2f1 unit")
        return ops

    def warmup(self):
        from sphmult import groups, specfun, spherical

        so0 = groups.params_for("so0", 4)
        spherical.phi(so0, 0.25 + 0.5j, 1.5)
        spherical.phi(groups.params_for("su", 4), 0.7 - 0.2j, 3.0)
        spherical.phi_lorentz_hyp2(so0.m, 0.25 + 0.5j, 1.5)
        spherical.phi_lorentz_integral(so0.m, 0.25 + 0.5j, 1.5)
        spherical.c_function(so0, 0.25 + 0.5j)
        spherical.phi_asymptotic(so0, 0.25 + 0.5j, 12.0)
        spherical.cb_norm_lorentz(so0.m, 0.25 + 0.5j)
        for z in (-3.0, 0.3, 0.9):
            specfun.hyp2f1(0.4, 0.6, 1.7, z)

    def run(self, op: Op):
        from sphmult import NotAMultiplierError, specfun, spherical

        if op.kind == "hyp2f1":
            return specfun.hyp2f1(*op.params)
        group, s, r = op.params
        so0 = group.family.value == "so0"
        out = {"phi": spherical.phi(group, s, r)}
        if so0:
            out["hyp2"] = spherical.phi_lorentz_hyp2(group.m, s, r)
            if r <= 10.0:
                out["integral"] = spherical.phi_lorentz_integral(group.m, s, r)
        if s.real != 0.0:
            s_pos = s if s.real > 0 else -s
            out["c"] = spherical.c_function(group, s_pos)
            out["asym"] = spherical.phi_asymptotic(group, s_pos, r)
        if so0:
            try:
                out["cb"] = spherical.cb_norm_lorentz(group.m, s)
            except NotAMultiplierError:
                out["cb"] = "not_multiplier"
        return out

    def summary(self, op: Op, result):
        if op.kind == "hyp2f1":
            return complex(result)
        phi_value = result["phi"]
        items = dict(result, phi=(complex(phi_value.value), phi_value.method.value))
        return tuple(sorted(items.items()))

    def check(self, op: Op, summary, peer=None) -> Verdict:
        if not ref.available():
            return _unchecked()
        if op.kind == "hyp2f1":
            a, b, c, z = op.params
            want = ref.hyp2f1(a, b, c, z)
            ok = _rel_ok(summary, want, want, SPECIAL_TOL)
            d = hyp2f1_separation(a, b, c, z)
            known = None if ok or d is None or not near_integer_separation(d) else \
                "near_integer_separation"
            return Verdict(ok, [("hyp2f1", ref.digits(summary, want, want))], known=known)
        group, s, r = op.params
        m, m0 = group.m, group.m0
        got = dict(summary)
        phi_ref, envelope = ref.phi(m, m0, s, r)
        value, method = got["phi"]
        found, misses = [], []

        def judge(route, v, want, env, tol):
            if not _rel_ok(v, want, env, tol):
                misses.append(route)
            found.append((route, ref.digits(v, want, env)))

        tol = {"integral_quadrature": QUAD_TOL, "asymptotic": ASYMPTOTIC_TOL}.get(method, PHI_TOL)
        judge("phi." + method, value, phi_ref, envelope, tol)
        if "hyp2" in got:
            judge("phi_lorentz_hyp2", got["hyp2"], phi_ref, envelope, PHI_TOL)
        if "integral" in got:
            judge("phi_lorentz_integral", got["integral"], phi_ref, envelope, QUAD_TOL)
        if "c" in got:
            s_pos = s if s.real > 0 else -s
            c_ref = ref.c_function(m, m0, s_pos)
            judge("c_function", got["c"], c_ref, c_ref, SPECIAL_TOL)
            a_ref = ref.phi_asymptotic(m, m0, s_pos, r)
            judge("phi_asymptotic", got["asym"], a_ref, a_ref, SPECIAL_TOL)
        if "cb" in got:
            position = ref.strip_position(m, s)
            cb = got["cb"]
            if position == "interior":
                if cb == "not_multiplier":
                    misses.append("cb_norm_lorentz")
                else:
                    want = ref.cb_norm(m, s)
                    judge("cb_norm_lorentz", cb, want, want, SPECIAL_TOL)
            elif cb != (1.0 if position == "boundary_constant" else "not_multiplier"):
                misses.append("cb_norm_lorentz")
        known = None
        if misses and HYP2F1_ROUTES.issuperset(misses) and near_integer_separation(s):
            known = "near_integer_separation"
        return Verdict(not misses, found, note=f"missed {misses}" if misses else "", known=known)


# ---------------------------------------------------------------------------
# kernel: the Bessel-kernel quadratures.


class Kernel:
    name = "kernel"
    tail_pct = 90.0
    AXIS_T = (0.6, 1.3, 2.0)
    ROUNDS = 3
    BKM_CHECKED = tuple(range(0, 500, 10)) + (499,)  # grid points checked against mpmath

    def generate(self, seed: int) -> list[Op]:
        import numpy as np
        from sphmult import lorentz

        rng = random.Random(f"kernel:{seed}")
        ops: list[Op] = []

        def add(kind, params, region=None, label=""):
            ops.append(Op(len(ops), kind, params, region, label))

        axis = "imaginary_axis_k_it"
        # The same imaginary-axis grid for every seed, s = 1.3i at m = 2 included.
        for m in (1, 2, 3):
            for t in self.AXIS_T:
                add("l1_norm", (m, complex(0.0, t)), axis, f"l1 m={m} axis")
        # The seeded ops twice over: an op's cost depends on its draw (an L1
        # norm takes 35-190 ms), and a pass with twice the draws depends less
        # on the seed in its latency percentiles and throughput.
        for _round in range(self.ROUNDS):
            for m in (1, 2, 3):
                for t in _bands(rng, 5, 1.3):
                    s = complex(rng.uniform(-0.35, 0.35) * m, 0.2 + t)
                    add("l1_norm", (m, s), label=f"l1 m={m}")
            bands = list(zip(_bands(rng, 6, 3.0), rng.sample(_bands(rng, 6, 3.0), 6)))
            while bands:
                nu = complex(rng.uniform(-0.8, 0.8), bands[-1][0] - 1.5)
                mu = complex(rng.uniform(-0.8, 0.8), bands[-1][1] - 1.5)
                rho = rng.uniform(-1.5, 0.8)
                margin = min(1.0 + a * nu.real + b * mu.real - rho for a in (1, -1) for b in (1, -1))
                if margin > 0.25:
                    add("moment", (nu, mu, rho), label="weber-schafheitlin")
                    bands.pop()
            for m in (1, 2, 3):
                s = complex(rng.uniform(-0.4, 0.4) * m, rng.uniform(-1.5, 1.5))
                add("na_y0", (m, s, rng.uniform(0.1, 2.0)), label=f"phi_on_na m={m} y=0")
            for _ in range(2):
                params = (complex(rng.uniform(-0.4, 0.4), rng.uniform(-1.0, 1.0)),
                          rng.uniform(0.1, 1.5), rng.uniform(0.2, 1.2))
                add("na_y", params, label="phi_on_na m=1 y!=0")
                add("pairing", params, label="coefficient_pairing m=1")
            for _ in range(3):
                s = complex(rng.uniform(0.1, 1.0), rng.uniform(-1.2, 1.2))
                add("fhat", (s, rng.uniform(0.5, 2.0)), label="fhat_check")
            for n in (2, 3):
                for _ in range(2):
                    s = complex(rng.uniform(-0.45, 0.45) * (n - 1), rng.uniform(-1.5, 1.5))
                    r = rng.uniform(0.1, 2.0)
                    add("via_rho", (n, s, r, lorentz.make_a(r, n)), label=f"phi_via_rho n={n}")
            for m in (1, 2):
                s = complex(rng.uniform(-0.4, 0.4) * m, rng.uniform(-1.5, 1.5))
                add("vector", (m, s, math.exp(rng.uniform(-4.0, 2.5))), label=f"bessel_vector m={m}")
            grid = np.logspace(-9.0, math.log10(30.0), 500)
            for imaginary in (True, True, False, False):
                nu = (complex(0.0, rng.uniform(0.5, 2.5)) if imaginary
                      else complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.0, 2.0)))
                add("bkm", (nu, grid), axis if imaginary else None, "bessel_k_many 500")
        return ops

    def warmup(self):
        import numpy as np
        from sphmult import lorentz, specfun, spherical

        spherical.multiplier_l1_norm(1, 0.1 + 0.3j)
        specfun.bessel_product_moment(0.1, 0.2, 0.0)
        specfun.weber_schafheitlin_rhs(0.1, 0.2, 0.0)
        spherical.phi_on_na(1, 0.1 + 0.2j, 0.5, 0.0)
        lorentz.coefficient_pairing(1, 0.1 + 0.2j, 0.5, 0.3)
        lorentz.fhat_check(1, 0.3, 1.0)
        lorentz.phi_via_rho(2, 0.1 + 0.2j, lorentz.make_a(0.5, 2))
        spherical.bessel_vector(1, 0.1, 1.0)
        specfun.bessel_k_many(0.3, np.logspace(-2.0, 1.0, 20))

    def run(self, op: Op):
        from sphmult import lorentz, specfun, spherical

        p = op.params
        if op.kind == "l1_norm":
            return spherical.multiplier_l1_norm(*p)
        if op.kind == "moment":
            nu, mu, rho = p
            return (specfun.bessel_product_moment(nu, mu, -rho),
                    specfun.weber_schafheitlin_rhs(nu, mu, rho))
        if op.kind == "na_y0":
            m, s, r = p
            return spherical.phi_on_na(m, s, r, 0.0)
        if op.kind == "na_y":
            s, r, y = p
            return spherical.phi_on_na(1, s, r, y)
        if op.kind == "pairing":
            s, r, y = p
            return lorentz.coefficient_pairing(1, s, r, y)
        if op.kind == "fhat":
            return lorentz.fhat_check(1, *p)
        if op.kind == "via_rho":
            n, s, _, g = p
            return lorentz.phi_via_rho(n, s, g)
        if op.kind == "vector":
            return spherical.bessel_vector(*p)
        return specfun.bessel_k_many(*p)

    def summary(self, op: Op, result):
        if op.kind == "bkm":
            return result.tobytes()
        return result

    def peer_kind(self, op: Op) -> str | None:
        """The op whose result is this op's reference, if any."""
        return {"na_y": "pairing", "pairing": "na_y"}.get(op.kind)

    def check(self, op: Op, summary, peer=None) -> Verdict:
        import numpy as np

        p = op.params
        kind = op.kind
        if kind in ("na_y", "pairing"):
            if peer is None:
                return Verdict(True, [], note="second route failed; unchecked", checked=False)
            return Verdict(_rel_ok(summary, peer, peer, PAIR_TOL), _found(kind, summary, peer, peer))
        if kind == "fhat":
            direct, closed = summary
            return Verdict(_rel_ok(direct, closed, closed, QUAD_TOL),
                           _found(kind, direct, closed, closed))
        if not ref.available():
            if kind == "moment":  # the quadrature against the package's closed form
                quad, closed = summary
                return Verdict(_rel_ok(quad, closed, closed, QUAD_TOL))
            return _unchecked()
        if kind == "l1_norm":
            m, s = p
            want = ref.cb_norm(m, s)
            return Verdict(_rel_ok(summary, want, want, QUAD_TOL),
                           [(kind, ref.digits(summary, want, want))])
        if kind == "moment":
            want = ref.weber_schafheitlin(*p)
            quad, closed = summary
            return Verdict(
                _rel_ok(quad, want, want, QUAD_TOL) and _rel_ok(closed, want, want, SPECIAL_TOL),
                [("bessel_product_moment", ref.digits(quad, want, want)),
                 ("weber_schafheitlin_rhs", ref.digits(closed, want, want))],
            )
        if kind in ("na_y0", "via_rho"):
            m = p[0] if kind == "na_y0" else p[0] - 1  # phi_via_rho takes n = m + 1
            want, envelope = ref.phi(m, m + 2, p[1], p[2])
            return Verdict(_rel_ok(summary, want, envelope, QUAD_TOL),
                           [(kind, ref.digits(summary, want, envelope))])
        if kind == "vector":
            want, env = ref.bessel_vector(*p)
            return Verdict(_rel_ok(summary, want, env, SPECIAL_TOL),
                           [(kind, ref.digits(summary, want, env))])
        nu, xs = p
        values = np.frombuffer(summary, dtype=complex)
        ok, found, misses = True, [], []
        for i in self.BKM_CHECKED:
            want, envelope = ref.besselk(nu, xs[i])
            if not _rel_ok(values[i], want, envelope, SPECIAL_TOL):
                ok = False
                misses.append(xs[i])
            found.append(("bessel_k_many", ref.digits(values[i], want, envelope)))
        known = "bessel_k_large_x" if misses and min(misses) > BESSEL_LARGE_X else None
        return Verdict(ok, found, note=f"missed at x = {misses}" if misses else "", known=known)


# ---------------------------------------------------------------------------
# tree: reduced-word enumeration on homogeneous trees, exact arithmetic.


class Tree:
    name = "tree"
    # p99 (96 inputs beyond it) is set by the machine's stalls, not the
    # program: across two ten-seed sets its median moved by 20 % while p50
    # moved by 1 %.  p95 lies in the cluster of the costliest bz_counts pairs.
    tail_pct = 95.0
    SPECS = [(3, 0), (4, 0), (0, 2), (1, 1), (2, 1)]
    SPHERE_RADIUS = 8
    CONV_SHELL = 5
    BALL_RADIUS = 3
    BZ_BALL = 6
    TWO_POINT_PAIRS = 20
    SHELL_MAX = 8

    def generate(self, seed: int) -> list[Op]:
        from sphmult import tree

        rng = random.Random(f"tree:{seed}")
        ops: list[Op] = []

        def add(kind, params, label):
            ops.append(Op(len(ops), kind, params, None, label))

        for m_fac, n_fac in self.SPECS:
            spec = tree.FreeProductSpec(m_fac, n_fac)
            label = f"({m_fac},{n_fac})"
            add("spheres", (spec,), f"spheres {label}")
            for i in range(1, self.CONV_SHELL + 1):
                for j in range(i, self.CONV_SHELL + 1):
                    add("conv", (spec, i, j), f"radial_convolve {label}")
            ball = [tree.word(spec, w) for sh in ref.ball(m_fac, n_fac, self.BALL_RADIUS) for w in sh]
            for x in ball:
                for y in ball:
                    add("bz", (spec, x, y), f"bz_counts {label}")
            support = rng.sample(ball, 12)
            h = {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in support}
            add("radialize", (spec, h), f"radialize {label}")
            for _ in range(self.TWO_POINT_PAIRS):
                add("two_point", (spec, h, rng.choice(ball), rng.choice(ball)),
                    f"two-point radialization {label}")
            for _ in range(2):
                alpha = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 12))
                add("msf", (spec, alpha), f"multiplicative_shell_function {label}")
        return ops

    def warmup(self):
        from sphmult import tree

        spec = tree.FreeProductSpec(3, 1)
        shells = tree.spheres(spec, 3)
        tree.radial_convolve(tree.shell_indicator(1), tree.shell_indicator(2), spec)
        x, y = shells[2][0], shells[1][0]
        tree.bz_counts(spec, x, y, 4)
        h = {x: Fraction(1, 3), y: Fraction(-2, 5)}
        tree.radialize(spec, h)
        tree.radialize_two_point(spec, h, x, y)
        tree.multiplicative_shell_function(spec, Fraction(1, 4), 3)

    def run(self, op: Op):
        from sphmult import tree

        p = op.params
        if op.kind == "spheres":
            # Each op starts from a cold cache, as every CLI process does.
            cache = getattr(tree, "_SPHERE_CACHE", None)
            if cache is not None:
                cache.clear()
            return tree.spheres(p[0], self.SPHERE_RADIUS)
        if op.kind == "conv":
            spec, i, j = p
            return tree.radial_convolve(tree.shell_indicator(i), tree.shell_indicator(j), spec)
        if op.kind == "bz":
            return tree.bz_counts(*p, self.BZ_BALL)
        if op.kind == "radialize":
            return tree.radialize(*p)
        if op.kind == "two_point":
            return tree.radialize_two_point(*p)
        spec, alpha = p
        return tree.multiplicative_shell_function(spec, alpha, self.SHELL_MAX)

    def summary(self, op: Op, result):
        if op.kind == "spheres":
            return tuple(
                (len(shell), len(set(shell)), min(map(len, shell)), max(map(len, shell)))
                for shell in result
            )
        if op.kind == "bz":
            return (len(result), frozenset(result.values()), frozenset(map(len, result)))
        if op.kind in ("conv", "radialize", "msf"):
            return dict(result.shells)
        return result

    def check(self, op: Op, summary, peer=None) -> Verdict:
        spec = op.params[0]
        m_fac, q = spec.involutive, ref.tree_q(spec.involutive, spec.free)
        if op.kind == "spheres":
            want = tuple((ref.sphere_size(q, n),) * 2 + (n, n) for n in range(self.SPHERE_RADIUS + 1))
            ok = summary == want
        elif op.kind == "conv":
            ok = summary == ref.convolution(q, op.params[1], op.params[2])
        elif op.kind == "bz":
            x, y = op.params[1].letters, op.params[2].letters
            d = len(ref.reduce_letters(m_fac, ref.inverse_letters(m_fac, y) + x))
            value = ref.convolution(q, len(x), len(y))[d]
            ok = summary == (ref.sphere_size(q, d), frozenset({value}), frozenset({d}))
        elif op.kind == "radialize":
            ok = summary == self._shell_means(q, op.params[1])
        elif op.kind == "two_point":
            _, h, x, y = op.params
            d = len(ref.reduce_letters(m_fac, ref.inverse_letters(m_fac, y.letters) + x.letters))
            ok = summary == self._shell_means(q, h).get(d, 0)
            ok &= isinstance(summary, (int, Fraction))
        else:
            values = ref.multiplicative_shell(q, op.params[1], self.SHELL_MAX)
            ok = summary == {n: v for n, v in enumerate(values) if v != 0}
            ok &= all(isinstance(v, Fraction) for v in summary.values())
        return Verdict(bool(ok), [("tree", ref.DIGITS_CAP if ok else 0.0)])

    @staticmethod
    def _shell_means(q: int, h: dict) -> dict:
        sums: dict = {}
        for w, v in h.items():
            sums[len(w)] = sums.get(len(w), 0) + v
        return {n: Fraction(t, ref.sphere_size(q, n)) for n, t in sums.items() if t != 0}


# ---------------------------------------------------------------------------
# cli: one fresh `python -m sphmult.cli` child process per op.


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[int, str, str, float]:
    """Run a child to completion; (exit code, stdout, stderr, max RSS in MB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err_chunks: list[bytes] = []
    drain = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode(), b"".join(err_chunks).decode(),
            usage.ru_maxrss / 1024.0)


_METHOD_LINE = re.compile(r"^\s+(\S+)\s+([+-]\S+)\s+([+-]\S+)j$")


class Cli:
    name = "cli"
    tail_pct = 80.0
    EVAL_PER_FAMILY = 4
    TREE_PER_SPEC = 4

    def __init__(self):
        self.traced_entry: list[str] | None = None  # set to run children under the tracer
        self.child_stats: list[dict] = []  # per-function totals reported by traced children

    def generate(self, seed: int) -> list[Op]:
        rng = random.Random(f"cli:{seed}")
        ops: list[Op] = []

        def add(kind, params, label):
            ops.append(Op(len(ops), kind, params, None, label))

        a = rng.choice((1.0, 1.1, 1.2, 1.25, 1.5))
        t_hi = rng.uniform(2.0, 4.0)
        add("norm-table", ("so0", 3, -a, a, 0.0, t_hi), "norm-table 201x201")
        add("verify", (), "verify")
        from sphmult import groups

        for family, n in Spectral.FAMILIES:
            m = groups.params_for(family, n).m
            for _ in range(self.EVAL_PER_FAMILY):
                add("eval", (family, n, rng.uniform(-0.45, 0.45) * m, rng.uniform(-2.0, 2.0),
                             rng.uniform(0.1, 12.0)), f"eval {family} {n}")
        for m_fac, n_fac in Tree.SPECS:
            for _ in range(self.TREE_PER_SPEC):
                add("tree", (m_fac, n_fac, rng.choice((3, 4, 5))), f"tree ({m_fac},{n_fac})")
        return ops

    @staticmethod
    def argv(op: Op) -> list[str]:
        p = op.params
        if op.kind == "norm-table":
            family, n, lo, hi, t_lo, t_hi = p
            return ["norm-table", "--family", family, "--n", str(n),
                    f"--sigma-range={lo!r}:{hi!r}:201", f"--t-range={t_lo!r}:{t_hi!r}:201"]
        if op.kind == "verify":
            return ["verify"]
        if op.kind == "eval":
            family, n, sigma, t, r = p
            args = ["eval", "--family", family]
            if n is not None:
                args += ["--n", str(n)]
            return args + [f"--sigma={sigma!r}", f"--t={t!r}", f"--r={r!r}"]
        m_fac, n_fac, radius = p
        return ["tree", "--m-factors", str(m_fac), "--n-factors", str(n_fac),
                "--radius", str(radius)]

    def warmup(self):
        from sphmult import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(["norm-table", "--family", "so0", "--n", "3",
                      "--sigma-range=-0.5:0.5:3", "--t-range", "0:1:3"])
            cli.main(["eval", "--family", "so0", "--n", "3", "--sigma", "0.2", "--t", "0.4"])
            cli.main(["verify", "--checks", "gamma-recurrence"])
            cli.main(["tree", "--m-factors", "3", "--n-factors", "0", "--radius", "2"])

    def run(self, op: Op):
        entry = self.traced_entry or [sys.executable, "-m", "sphmult.cli"]
        result = run_child(entry + self.argv(op))
        if self.traced_entry:
            marker = "BENCH-TRACE "
            lines = [ln for ln in result[2].splitlines() if ln.startswith(marker)]
            if lines:
                self.child_stats.append(json.loads(lines[-1][len(marker):]))
        return result

    @staticmethod
    def failure(result):
        return "nonzero_exit" if result[0] != 0 else None

    @staticmethod
    def child_rss(result):
        return result[3]

    def summary(self, op: Op, result):
        code, out, err, rss = result
        return (code, out)

    def check(self, op: Op, summary, peer=None) -> Verdict:
        code, out = summary
        if code != 0:
            return Verdict(False, [], note=f"exit {code}")
        try:
            return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, out)
        except (ValueError, KeyError, IndexError) as exc:
            return Verdict(False, [], note=f"unparsable output: {exc}")

    def _check_norm_table(self, op: Op, out: str) -> Verdict:
        from sphmult import groups, spherical

        family, n, lo, hi, t_lo, t_hi = op.params
        m = groups.params_for(family, n).m
        lines = out.strip().splitlines()
        if lines[0] != "sigma,t,norm,status" or len(lines) != 1 + 201 * 201:
            return Verdict(False, [], note="wrong header or row count")
        grid = [(lo + (hi - lo) * i / 200, t_lo + (t_hi - t_lo) * j / 200)
                for i in range(201) for j in range(201)]
        ok = True
        interior = []
        for line, (sigma, t) in zip(lines[1:], grid):
            s_txt, t_txt, norm_txt, status = line.split(",")
            ok &= abs(float(s_txt) - sigma) <= 1e-12 and abs(float(t_txt) - t) <= 1e-12
            position = groups.classify(complex(sigma, t), m)
            if position is groups.StripPosition.INTERIOR:
                want = spherical.cb_norm_lorentz(m, complex(sigma, t))
                ok &= status == "INTERIOR" and _rel_ok(float(norm_txt), want, want, SPECIAL_TOL)
                interior.append((complex(sigma, t), float(norm_txt)))
            elif position is groups.StripPosition.BOUNDARY_CONSTANT:
                ok &= status == "BOUNDARY_CONSTANT" and float(norm_txt) == 1.0
            else:
                ok &= status == "NOT_MULTIPLIER" and norm_txt == ""
        found = []
        sample = random.Random(hashlib.sha256(out.encode()).hexdigest()).sample(
            interior, min(200, len(interior))) if ref.available() else []
        for s, norm in sample:
            want = ref.cb_norm(m, s)
            ok &= _rel_ok(norm, want, want, SPECIAL_TOL)
            found.append(("norm-table", ref.digits(norm, want, want)))
        return Verdict(ok, found)

    def _check_verify(self, op: Op, out: str) -> Verdict:
        report = json.loads(out)
        ok = report["failed"] == 0 and report["passed"] == len(report["checks"]) > 0
        return Verdict(ok, [], note="" if ok else f"verify failed {report['failed']}")

    def _check_eval(self, op: Op, out: str) -> Verdict:
        from sphmult import NotAMultiplierError, groups, spherical
        from sphmult.quadrature import QuadratureSpec

        family, n, sigma, t, r = op.params
        group = groups.params_for(family, n)
        s = complex(sigma, t)
        phi_value = spherical.phi(group, s, r)
        want = {phi_value.method.value: complex(phi_value.value)}
        cb = None
        if family == "so0":
            want["integral_quadrature"] = spherical.phi_lorentz_integral(
                group.m, s, r, QuadratureSpec(relative_tolerance=1e-8))
            want["hypergeometric_second_form"] = spherical.phi_lorentz_hyp2(group.m, s, abs(r))
        if s.real > 0:
            want["asymptotic"] = spherical.phi_asymptotic(group, s, r)
        if family == "so0":
            try:
                cb = spherical.cb_norm_lorentz(group.m, s)
            except NotAMultiplierError:
                cb = "NOT_MULTIPLIER"
        got = {}
        got_cb = None
        for line in out.splitlines()[1:]:
            if line.strip().startswith("cb multiplier norm"):
                text = line.split()[-1]
                got_cb = text if text == "NOT_MULTIPLIER" else float(text)
                continue
            match = _METHOD_LINE.match(line)
            if match is None:
                return Verdict(False, [], note=f"unexpected line {line!r}")
            got[match.group(1)] = complex(float(match.group(2)), float(match.group(3)))
        ok = set(got) == set(want) and all(
            _rel_ok(got[k], v, v, 1e-13) for k, v in want.items())
        if isinstance(cb, float):
            ok &= isinstance(got_cb, float) and _rel_ok(got_cb, cb, cb, 1e-13)
        else:
            ok &= got_cb == cb
        return Verdict(ok, [])

    def _check_tree(self, op: Op, out: str) -> Verdict:
        m_fac, n_fac, radius = op.params
        q = ref.tree_q(m_fac, n_fac)
        lines = out.strip().splitlines()
        sizes = [int(v) for v in lines[1].split(":", 1)[1].split("(")[0].split(",")]
        ok = sizes == [ref.sphere_size(q, k) for k in range(radius + 1)]
        table = {}
        for line in lines[2:-1]:
            name, body = line.split(": ", 1)
            table[name] = {int(part.split(": ")[0].split()[1]): int(part.split(": ")[1])
                           for part in body.split(", ")}
        shell = min(radius, 3)
        ok &= table == {f"chi_{i}*chi_{j}": ref.convolution(q, i, j)
                        for i in range(1, shell + 1) for j in range(i, shell + 1)}
        ok &= lines[-1] == "pair counts constant on each shell: yes"
        return Verdict(ok, [])


WORKLOADS = {w.name: w for w in (Spectral(), Kernel(), Tree(), Cli())}
