"""Package surface: lazy exports and the import graph of the command line."""

import importlib
import os
import subprocess
import sys
import textwrap

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
