"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sphmult import ConvergenceError, groups, specfun, spherical, tree  # noqa: E402

SPECS = workloads.Tree.SPECS


def _outcome(call):
    try:
        value = call()
    except Exception as exc:  # the comparison covers raised exceptions too
        return ("raise", type(exc), exc.args)
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.tobytes())
    return ("value", repr(value))


class WrapperTransparency(unittest.TestCase):
    def test_wrapped_calls_return_and_raise_exactly_as_unwrapped(self):
        su2 = groups.params_for("su", 2)
        so3 = groups.params_for("so0", 3)
        spec = tree.FreeProductSpec(0, 2)
        x, y = tree.representative(spec, 2), tree.representative(spec, 1)
        calls = [
            lambda: specfun.gamma(0.3 + 2j),
            lambda: specfun.gamma(-1.0),
            lambda: specfun.hyp2f1(0.7, 1.3, 2.9, -5.0),
            lambda: specfun.hyp2f1(0.7 + 0.2j, 1.3, 2.9, 0.5),
            lambda: specfun.hyp2f1(0.7, 1.3, 2.9, 0.95),
            lambda: spherical.phi(so3, 0.3 + 0.5j, 2.0),
            lambda: spherical.phi(su2, 1.0, 10.0),
            lambda: spherical.phi_lorentz_integral(2, 0.3 + 0.5j, 2.0),
            lambda: spherical.cb_norm_lorentz(2, 0.3 + 0.5j),
            lambda: spherical.cb_norm_lorentz(2, 1.5),
            lambda: specfun.bessel_k(0.3 + 1j, 2.0),
            lambda: spherical.multiplier_l1_norm(2, 1.3j),
            lambda: specfun.bessel_k_many(0.3 + 1j, np.logspace(-3.0, 1.0, 30)),
            lambda: tree.spheres(spec, 4),
            lambda: tree.bz_counts(spec, x, y, 4),
        ]
        plain = [_outcome(c) for c in calls]
        originals = (specfun.gamma, spherical.gamma, spherical._hyp2f1_zw, tree.multiply)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(spherical.gamma, originals[1])
            traced = [_outcome(c) for c in calls]
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertEqual(
            (specfun.gamma, spherical.gamma, spherical._hyp2f1_zw, tree.multiply), originals)

        stats = tracer.stats()
        self.assertEqual(stats["specfun.gamma"].fail_by_class, {"PoleError": 1})
        self.assertEqual(stats["specfun.bessel_k"].fail_by_class, {"ConvergenceError": 1})
        self.assertEqual(stats["spherical.multiplier_l1_norm"].fail, 1)
        self.assertEqual(stats["spherical.phi"].fail, 1)
        # Calls made inside the package through its own imported names.
        self.assertGreater(stats["specfun.hyp2f1.unit"].calls, 1)
        self.assertGreater(stats["tree.multiply"].calls, 0)
        self.assertGreater(stats["quadrature.integrate"].counters["nodes"], 0)
        self.assertEqual(stats["specfun.bessel_k_many"].counters["points"], 30)
        self.assertEqual(stats["tree.bz_counts"].counters["pairs"],
                         tree.sphere_size(spec, 2) * tree.sphere_size(spec, 1))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class SelfTime(unittest.TestCase):
    def test_self_time_on_a_synthetic_span_tree(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def advance(dt):
            clock.t += dt

        def leaf():  # a hot leaf: counted, charged to its parent, not stored
            advance(1.0)

        def child(fail):
            advance(2.0)
            tracer.call("specfun.gamma", leaf, (), {})
            advance(3.0)
            if fail:
                raise ValueError("boom")

        def root():
            advance(1.0)
            tracer.call("tree.bz_counts", child, (False,), {})
            advance(0.5)
            with self.assertRaises(ValueError):
                tracer.call("tree.bz_counts", child, (True,), {})
            advance(0.25)

        tracer.call("tree.radial_convolve", root, (), {})
        stats = tracer.stats()
        self.assertEqual(stats["specfun.gamma"].calls, 2)
        self.assertEqual(stats["specfun.gamma"].self_s, 2.0)
        self.assertEqual(stats["tree.bz_counts"].calls, 2)
        self.assertEqual(stats["tree.bz_counts"].self_s, 10.0)
        self.assertEqual(stats["tree.bz_counts"].fail_by_class, {"ValueError": 1})
        self.assertEqual(stats["tree.radial_convolve"].self_s, 1.75)

        cols = tracer.span_cols
        names = [tracer.names[i] for i in cols["name"]]
        self.assertEqual(names, ["tree.bz_counts", "tree.bz_counts", "tree.radial_convolve"])
        root_id = cols["id"][2]
        self.assertEqual(list(cols["parent"]), [root_id, root_id, -1])
        self.assertEqual(list(cols["start"]), [1.0, 7.5, 0.0])
        self.assertEqual(list(cols["end"]), [7.0, 13.5, 13.75])


class Determinism(unittest.TestCase):
    @staticmethod
    def _inputs(workload, seed):
        return pickle.dumps([(op.kind, op.params, op.region, op.label)
                             for op in workload.generate(seed)])

    def test_same_seed_same_inputs(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = self._inputs(workload, 7)
                self.assertEqual(first, self._inputs(workload, 7))
                self.assertNotEqual(first, self._inputs(workload, 8))

    def test_pass_order_depends_only_on_seed_and_pass(self):
        self.assertEqual(run.pass_order(3, 1, 50), run.pass_order(3, 1, 50))
        self.assertNotEqual(run.pass_order(3, 1, 50), run.pass_order(3, 2, 50))


class TreeReference(unittest.TestCase):
    RADIUS = 5

    def test_closed_forms_match_breadth_first_enumeration(self):
        for m_fac, n_fac in SPECS:
            with self.subTest(spec=(m_fac, n_fac)):
                q = ref.tree_q(m_fac, n_fac)
                shells = ref.ball(m_fac, n_fac, self.RADIUS)
                self.assertEqual([len(s) for s in shells],
                                 [ref.sphere_size(q, n) for n in range(self.RADIUS + 1)])
                spec = tree.FreeProductSpec(m_fac, n_fac)
                self.assertEqual([[w.letters for w in s] for s in tree.spheres(spec, self.RADIUS)],
                                 shells)
                for i in range(self.RADIUS + 1):
                    for j in range(self.RADIUS + 1 - i):
                        want = ref.convolution(q, i, j)
                        for k in range(i + j + 1):
                            z = shells[k][-1]
                            count = sum(
                                len(ref.reduce_letters(m_fac, ref.inverse_letters(m_fac, u) + z)) == j
                                for u in shells[i])
                            self.assertEqual(count, want.get(k, 0), (i, j, k))

    def test_multiplicative_shell_recurrence_matches_the_package_enumeration(self):
        for m_fac, n_fac in SPECS:
            spec = tree.FreeProductSpec(m_fac, n_fac)
            alpha = Fraction(-2, 7)
            values = ref.multiplicative_shell(ref.tree_q(m_fac, n_fac), alpha, self.RADIUS)
            got = tree.multiplicative_shell_function(spec, alpha, self.RADIUS)
            self.assertEqual(dict(got.shells), {n: v for n, v in enumerate(values) if v})


class FakeWorkload:
    """Ops are (call, known) pairs: the call's result must be "right"; a
    miss names the known region ``known``, as ``Kernel.check`` does.  A
    result "exit 1" stands for a child process that exited nonzero."""

    name = "fake"
    tail_pct = 50.0

    def run(self, op):
        return op.params[0]()

    @staticmethod
    def failure(result):
        return "nonzero_exit" if result == "exit 1" else None

    def summary(self, op, result):
        return result

    def check(self, op, summary, peer=None):
        return workloads.Verdict(summary == "right", known=op.params[1])


def _raise_value_error():
    raise ValueError("not a sphmult failure")


def _hyp2f1_hole():  # ConvergenceError raised in specfun._hyp2f1_zw
    return spherical.phi(groups.params_for("su", 2), 1.0, 10.0)


def _k_it_hole():  # ConvergenceError raised in specfun.bessel_k
    return spherical.multiplier_l1_norm(2, 1.3j)


class FailureAccounting(unittest.TestCase):
    def _judge(self, call, region=None, known=None):
        workload = FakeWorkload()
        ops = [workloads.Op(0, "fake", (lambda: "right", None), None, "fine"),
               workloads.Op(1, "fake", (call, known), region, "probe")]
        result = run.run_passes(workload, ops, 1, passes=2)
        acc, _, _ = run.judge(workload, ops, [result], result.summaries)
        return acc

    def test_failure_sites_name_the_innermost_package_function(self):
        for call, site in ((_hyp2f1_hole, "specfun._hyp2f1_zw"),
                           (_k_it_hole, "specfun.bessel_k")):
            try:
                call()
            except ConvergenceError as exc:  # assertRaises would drop the traceback
                self.assertEqual(run.failure_site(exc), site)
            else:
                self.fail(f"{call.__name__} returned")
        self.assertIsNone(run.failure_site(ValueError()))

    def test_a_raise_outside_every_known_region_makes_the_run_incorrect(self):
        acc = self._judge(_raise_value_error)
        self.assertFalse(acc["correct"])
        self.assertEqual(acc["failed"], 2)
        self.assertEqual(acc["classes"], {"other_exception": 2})
        self.assertEqual(acc["regions"], {"unexpected": 2})

    def test_a_region_excuses_only_the_failure_it_describes(self):
        cases = [
            # (call, op region, region a miss names, correct)
            (_hyp2f1_hole, "integer_s_near_unit", None, True),
            (_k_it_hole, "imaginary_axis_k_it", None, True),
            (_hyp2f1_hole, None, None, False),
            (_k_it_hole, "integer_s_near_unit", None, False),
            (_raise_value_error, "integer_s_near_unit", None, False),
            (lambda: "wrong", "integer_s_near_unit", None, False),
            (lambda: "wrong", None, "bessel_k_large_x", True),
            (lambda: "wrong", None, None, False),
            (lambda: "exit 1", None, None, False),
            (lambda: "exit 1", "integer_s_near_unit", "bessel_k_large_x", False),
        ]
        for call, region, known, correct in cases:
            with self.subTest(call=call.__name__, region=region, known=known):
                acc = self._judge(call, region, known)
                self.assertEqual(acc["correct"], correct)
                self.assertEqual(acc["failed"], 2)

    def test_an_output_that_changes_between_executions_makes_the_run_incorrect(self):
        outputs = iter(["right", "right again"])
        acc = self._judge(lambda: next(outputs))
        self.assertFalse(acc["correct"])


@unittest.skipUnless(ref.available(), "needs mpmath for the references")
class NearIntegerSeparation(unittest.TestCase):
    """The region excuses only misses of the 2F1 routes, and only in its band."""

    SPECTRAL = workloads.Spectral()

    def _verdict(self, kind, params, edit=None):
        op = workloads.Op(0, kind, params)
        summary = self.SPECTRAL.summary(op, self.SPECTRAL.run(op))
        if edit is not None:
            summary = edit(summary)
        return self.SPECTRAL.check(op, summary)

    def test_hyp2f1_misses_are_excused_only_near_an_integer_separation(self):
        a, b, c = 1.2881550197542133, 2.288169382683133, 3.3255181970589938  # b - a = 1 + 1e-5
        verdict = self._verdict("hyp2f1", (a, b, c, -15.899224523847554))
        self.assertFalse(verdict.ok)
        self.assertEqual(verdict.known, "near_integer_separation")
        self.assertIsNone(workloads.hyp2f1_separation(a, b, c, -2.0))  # series after Pfaff
        wrong = self._verdict("hyp2f1", (0.4, 0.6, 1.7, -3.0), lambda v: v * (1 + 1e-6))
        self.assertFalse(wrong.ok)
        self.assertIsNone(wrong.known)

    def test_phi_misses_are_excused_only_on_the_2f1_routes(self):
        point = (groups.params_for("su", 2), complex(0.9999999437792497, 0.0), 1.74)
        verdict = self._verdict("point", point)
        self.assertFalse(verdict.ok)
        self.assertEqual(verdict.known, "near_integer_separation")

        def spoil_c(summary):
            return tuple((k, v * 2 if k == "c" else v) for k, v in summary)

        self.assertIsNone(self._verdict("point", point, spoil_c).known)
        self.assertFalse(workloads.near_integer_separation(complex(1.0 + 1e-9, 0.0)))
        self.assertFalse(workloads.near_integer_separation(complex(0.01, 0.0)))


class WithoutMpmath(unittest.TestCase):
    """Without mpmath the accuracy figures are missing, never computed another way."""

    KINDS = {
        "spectral": ("point", "hyp2f1"),
        "kernel": ("moment", "na_y", "pairing", "fhat", "vector", "bkm"),
        "tree": ("conv", "two_point"),
        "cli": ("tree", "norm-table"),
    }

    def test_checks_run_and_report_no_digits(self):
        with mock.patch.object(ref, "mpmath", None):
            self.assertFalse(ref.available())
            self.assertEqual(run._layer_digits({}, 1), {})
            for name, kinds in self.KINDS.items():
                with self.subTest(workload=name):
                    workload = workloads.WORKLOADS[name]
                    chosen = []
                    for kind in kinds:
                        chosen += [op for op in workload.generate(1) if op.kind == kind][:2]
                    ops = [workloads.Op(i, op.kind, op.params, op.region, op.label)
                           for i, op in enumerate(chosen)]
                    result = run.run_passes(workload, ops, 1, passes=1)
                    acc, digits, verdicts = run.judge(workload, ops, [result], result.summaries)
                    # Tree outputs are checked exactly, with no mpmath reference.
                    self.assertEqual([d for d in digits if d[0] != "tree"], [])
                    metrics = run.end_to_end_metrics(workload, result, acc, digits, [1.0], 1.0)
                    self.assertNotIn("min_digits", metrics)
                    self.assertTrue(acc["correct"], acc["unexpected"])
                    self.assertEqual(len(result.keys), len(ops))
                    if name == "spectral":
                        self.assertEqual(len(acc["unchecked_ops"]), len(verdicts))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertEqual([m["unit"] for m in spec["end_to_end"]],
                         [unit for _, unit in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.per_layer_spec(tracing.FUNCTION_NAMES))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_refuses_to_run_without_the_package_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "tree", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
