"""Package surface: lazy exports, the import graph of the command line and
the single owners of Gamma products, of series summation and of the
Bessel-kernel integral."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sphmult


def test_exports_are_the_home_module_objects():
    for name in sphmult.__all__:
        value = getattr(sphmult, name)
        # the defining module (for DEFAULT_SPEC, its class's)
        home = importlib.import_module(value.__module__)
        assert value is getattr(home, name), name
        assert name in dir(sphmult), name


def test_star_import_and_from_import():
    namespace = {}
    exec("from sphmult import *", namespace)
    assert set(sphmult.__all__) <= set(namespace)
    from sphmult import phi
    from sphmult.spherical import phi as home_phi

    assert phi is home_phi is namespace["phi"]


def test_unknown_name():
    with pytest.raises(AttributeError):
        sphmult.no_such_name  # noqa: B018


def _run_script(code):
    """Run code in a fresh interpreter; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(code):
    return _run_script(textwrap.dedent(code) + textwrap.dedent("""
        import sys
        print(" ".join(sorted(k for k in sys.modules
                              if k.startswith(("numpy", "sphmult")))))
    """)).split()


def test_tree_command_does_not_import_numpy():
    loaded = _modules_after("""
        import contextlib, io
        from sphmult import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["tree", "--m-factors", "3", "--n-factors", "0",
                             "--radius", "4"]) == 0
    """)
    assert "numpy" not in loaded
    assert loaded == ["sphmult", "sphmult.cli", "sphmult.errors", "sphmult.groups",
                      "sphmult.tree"]


def test_package_import_does_not_import_numpy():
    loaded = _modules_after("import sphmult; sphmult.params_for('so0', 3)")
    assert "numpy" not in loaded


def _cli_modules(argv):
    return _modules_after(f"""
        import contextlib, io
        from sphmult import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
    """)


# sigma > 0, so phi_asymptotic runs; r = 45 lies past the handoff radius
# max(8, 20 / sigma) = 40, where phi itself is the asymptotic form
CLOSED_FORM_RUNS = {
    "eval-su": ["eval", "--family", "su", "--n", "2", "--sigma", "0.5", "--t", "0.7",
                "--r", "1.5"],
    "eval-sp": ["eval", "--family", "sp", "--n", "2", "--sigma", "0.5", "--t", "-1.2",
                "--r", "3"],
    "eval-f4": ["eval", "--family", "f4", "--sigma", "0.5", "--t", "0.3", "--r", "45"],
    "norm-table": ["norm-table", "--family", "so0", "--n", "3",
                   "--sigma-range=-1.2:1.2:21", "--t-range=0:3:21"],
}


@pytest.mark.parametrize("argv", CLOSED_FORM_RUNS.values(), ids=CLOSED_FORM_RUNS)
def test_closed_form_commands_do_not_load_numpy(argv):
    loaded = _cli_modules(argv)
    assert not [name for name in loaded if name.split(".")[0] == "numpy"]
    assert "sphmult.spherical" in loaded


def test_so0_eval_loads_numpy():
    loaded = _cli_modules(["eval", "--family", "so0", "--n", "3", "--sigma", "0.3",
                           "--t", "1", "--r", "2"])
    assert [name for name in loaded if name.startswith("numpy.")]


def test_deferred_numpy_is_the_module_a_later_import_returns():
    _run_script("""
        import sys
        from sphmult import quadrature, specfun, spherical
        assert "numpy" not in sys.modules
        import numpy
        for module in (quadrature, specfun, spherical):
            # the first use rebinds the module's np to numpy itself
            assert module.np.ndarray is numpy.ndarray and module.np is numpy
        nodes, weights = numpy.polynomial.legendre.leggauss(15)
        assert [a.tobytes() for a in quadrature._gauss_legendre()] == [nodes.tobytes(),
                                                                        weights.tobytes()]
        assert specfun._BESSEL_ROUNDING_FLOOR == 8 * numpy.finfo(float).eps
    """)


def test_numpy_imported_first_is_used():
    _run_script("""
        import numpy
        from sphmult import quadrature, specfun, spherical
        assert numpy is quadrature.np is specfun.np is spherical.np
    """)


def test_threads_making_the_first_numpy_call_at_once():
    # Each thread's first call imports numpy; none may see it half loaded.
    _run_script("""
        import sys, threading
        from sphmult import spherical
        assert "numpy" not in sys.modules
        barrier, values, errors = threading.Barrier(6), [], []

        def first_call():
            barrier.wait()
            try:
                values.append(spherical.phi_lorentz_integral(3, 0.3 + 1j, 2.0))
            except BaseException as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=first_call) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(values) == 6 and len(set(values)) == 1
        assert values[0] == spherical.phi_lorentz_integral(3, 0.3 + 1j, 2.0)
    """)


def test_failed_numpy_import_raises_import_error_and_is_retried():
    _run_script("""
        import sys
        from sphmult import quadrature, spherical

        def call():
            # one quadrature in each module that defers numpy
            return (spherical.phi_lorentz_integral(3, 0.3, 2.0),
                    quadrature.integrate(lambda xs: xs * xs, 0.0, 1.0))

        sys.modules["numpy._core"] = None  # numpy's import of its core fails
        for _ in range(2):
            try:
                call()
            except ImportError:
                pass
            else:
                raise AssertionError("the load did not fail")
            assert "numpy" not in sys.modules
        del sys.modules["numpy._core"]
        value = call()
        import numpy
        assert numpy is quadrature.np is spherical.np
        assert value == call()
    """)


SOURCE = Path(sphmult.__file__).parent
GAMMA_CALLS = {"gamma", "rgamma", "log_gamma"}


def _gamma_calls(expr):
    return sum(1 for node in ast.walk(expr) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) in GAMMA_CALLS)


@pytest.mark.parametrize("module", ["spherical.py", "lorentz.py"])
def test_gamma_products_go_through_gamma_ratio(module):
    # a product or quotient of Gammas is one specfun.gamma_ratio call, so
    # the choice between direct and log form has one owner
    tree = ast.parse((SOURCE / module).read_text())
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.stmt):
            for expr in ast.iter_child_nodes(stmt):
                if isinstance(expr, ast.expr):
                    assert _gamma_calls(expr) < 2, f"{module}:{expr.lineno}"


def _names(path):
    """Names, attributes, imported names and definitions in a module."""
    return {getattr(node, field, None) for node in ast.walk(ast.parse(path.read_text()))
            for field in ("id", "attr", "name")}


def test_gamma_internals_stay_in_specfun():
    for path in SOURCE.glob("*.py"):
        if path.name == "specfun.py":
            continue
        leaked = _names(path) & {"_DIRECT_GAMMA_T", "log_gamma_ratio"}
        assert not leaked, (path.name, leaked)


def test_one_series_stopping_rule():
    # every 2F1 series is summed by specfun._sum_series: no other loop in
    # specfun runs to MAX_SERIES_TERMS or tests its terms against rtol
    tree = ast.parse((SOURCE / "specfun.py").read_text())
    helpers = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_sum_series"]
    assert len(helpers) == 1
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "_sum_series":
            continue
        for loop in ast.walk(func):
            if isinstance(loop, (ast.For, ast.While)):
                names = {getattr(node, "id", None) for node in ast.walk(loop)}
                assert not names & {"MAX_SERIES_TERMS", "max_terms", "rtol"}, \
                    (func.name, loop.lineno)


def test_retired_series_names_stay_gone():
    for path in SOURCE.glob("*.py"):
        text = path.read_text()
        for name in ("conditioned", "_IntegerSeparation", "_pochhammer_is_terminating"):
            assert name not in text, (path.name, name)


def _function(module, name):
    tree = ast.parse((SOURCE / module).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _callee(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _callees(node):
    return {_callee(call) for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_leggauss_runs_only_in_cached_helpers():
    # leggauss(n) is an eigenvalue solve; sphere_quadrature repeated it for
    # every grid of every phi_via_rho call
    seen = 0
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text())
        cached = {id(call) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                  and any(ast.unparse(d) in ("functools.cache", "cache") for d in func.decorator_list)
                  for call in ast.walk(func)}
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _callee(call) == "leggauss":
                seen += 1
                assert id(call) in cached, f"{path.name}:{call.lineno}"
    assert seen


def test_kernel_integral_internals_stay_in_specfun():
    # the kernels, their scaled weight, the rounding floor and its check have
    # one owner, and the grid rule one home: callers pass the parameters
    for path in SOURCE.glob("*.py"):
        names = _names(path)
        assert "_kernel_product" not in names, path.name
        if path.name != "specfun.py":
            leaked = names & {"_BESSEL_ROUNDING_FLOOR", "_kernel_value", "_bessel_k_scaled",
                              "_kernel_edges", "_product_moment"}
            assert not leaked, (path.name, leaked)


@pytest.mark.parametrize("module, name", [("spherical.py", "multiplier_l1_norm"),
                                          ("spherical.py", "phi_on_na"),
                                          ("lorentz.py", "coefficient_pairing")])
def test_kernel_integrals_go_through_specfun(module, name):
    # each supplies the integral's parameters and prefactor; specfun integrates
    callees = _callees(_function(module, name))
    assert not callees & {"composite", "refine", "integrate", "oscillation_edges"}, callees
    assert "_kernel_integral" in callees, callees


def test_oscillation_edges_takes_a_rate_not_a_callable():
    args = _function("quadrature.py", "oscillation_edges").args.args
    assert [arg.arg for arg in args] == ["a", "b", "t", "lam", "base_width"]
    assert not any("Callable" in ast.unparse(arg.annotation) for arg in args if arg.annotation)
    for path in SOURCE.glob("*.py"):
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and _callee(call) == "oscillation_edges":
                passed = call.args + [keyword.value for keyword in call.keywords]
                assert not any(isinstance(arg, ast.Lambda) for arg in passed), path.name
