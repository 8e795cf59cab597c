import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fldrank
import fldrank.si

SUBMODULES = ("centrality", "evaluation", "fld", "graph", "si")


def test_import_fldrank_loads_no_numpy():
    src = str(Path(fldrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, fldrank; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'fldrank'))))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "['fldrank']"


def test_every_export_is_its_submodules_object():
    modules = [importlib.import_module(f"fldrank.{name}") for name in SUBMODULES]
    assert len(fldrank.__all__) == len(set(fldrank.__all__)) == 39
    for name in fldrank.__all__:
        value = getattr(fldrank, name)
        assert any(vars(m).get(name) is value for m in modules), name
        if inspect.isclass(value) or inspect.isfunction(value):
            # the module that defines it
            assert vars(sys.modules[value.__module__])[name] is value, name
            assert value.__module__.startswith("fldrank."), name
    namespace = {}
    exec("from fldrank import *", namespace)
    assert set(fldrank.__all__) <= namespace.keys()
    assert set(fldrank.__all__) <= set(dir(fldrank))


def test_exports_read_the_current_binding(monkeypatch):
    # the benchmark's tracer wraps functions in their submodules
    assert fldrank.simulate is fldrank.si.simulate
    sentinel = object()
    monkeypatch.setattr(fldrank.si, "simulate", sentinel)
    assert fldrank.simulate is sentinel


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'fldrank' has no attribute 'no_such_name'"):
        fldrank.no_such_name
    assert not hasattr(fldrank, "_SUBMODULE_of_nothing")
    # references that only tests use live in tests/conftest.py, not in the package
    for name in ("bfs_distances", "DistanceField", "ols_slope"):
        assert not hasattr(fldrank, name), name
    with pytest.raises(ImportError):
        exec("from fldrank import no_such_name", {})
