import os
import subprocess
import sys
from pathlib import Path

import pytest

import qobf


def test_every_export_is_its_defining_modules_object():
    for name in qobf.__all__:
        if name == "__version__":
            continue
        obj = getattr(qobf, name)
        assert obj.__module__.startswith("qobf.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from qobf import *", namespace)
    assert set(qobf.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(qobf, name) for name in qobf.__all__)


def test_dir_lists_exports_before_first_use():
    code = "import qobf\nassert set(qobf.__all__) <= set(dir(qobf)), sorted(set(qobf.__all__) - set(dir(qobf)))"
    env = {**os.environ, "PYTHONPATH": str(Path(qobf.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def test_unknown_name():
    with pytest.raises(AttributeError, match="nope"):
        qobf.nope
    with pytest.raises(ImportError):
        from qobf import nope  # noqa: F401
