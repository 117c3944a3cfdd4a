"""Package surface: lazy exports, the import graph of the command line and
the single owner of Gamma products."""

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


def _modules_after(code):
    script = textwrap.dedent(code) + textwrap.dedent("""
        import sys
        print(" ".join(sorted(k for k in sys.modules
                              if k == "numpy" or k.startswith("sphmult"))))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env).stdout
    return out.split()


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


def test_gamma_internals_stay_in_specfun():
    for path in SOURCE.glob("*.py"):
        if path.name == "specfun.py":
            continue
        # names, attributes, imported names and definitions
        names = {getattr(node, field, None) for node in ast.walk(ast.parse(path.read_text()))
                 for field in ("id", "attr", "name")}
        leaked = names & {"_DIRECT_GAMMA_T", "log_gamma_ratio"}
        assert not leaked, (path.name, leaked)
