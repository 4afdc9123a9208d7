"""The runtime needs only the standard library.

networkx stays a test dependency: importing every module of ``repro`` in a
fresh interpreter must load neither it nor numpy, nor any other package
outside the standard library.  A fresh subprocess, because this test process
has long imported networkx for the oracles it shares a session with.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

_PROBE = """
import importlib, json, pkgutil, sys
already = set(sys.modules)  # the interpreter's own start-up (site hooks)
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({
    "modules": len(names),
    "loaded": sorted({m.split(".")[0] for m in set(sys.modules) - already}),
}))
"""


def test_no_runtime_module_imports_numpy_networkx_or_any_third_party_package():
    source_root = pathlib.Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
    )
    probe = json.loads(result.stdout)
    assert probe["modules"] > 50  # the walk really covered the package
    loaded = set(probe["loaded"])
    assert not loaded & {"numpy", "networkx"}
    assert loaded - {"repro"} <= set(sys.stdlib_module_names)
