"""The package runs on the standard library and numpy, its one declared
dependency: scipy, sympy or mpmath may be installed where tests run, so a
stray import would pass every other test there."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import timebin_bb84

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "timebin_bb84"}


def test_src_imports_only_stdlib_and_numpy():
    strays = []
    for path in sorted(Path(timebin_bb84.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not the package's own
                names = [node.module]
            else:
                continue
            strays += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not strays


def test_cli_import_leaves_concurrent_futures_unloaded():
    """Only the socket protocol path needs concurrent.futures, which pulls
    in logging; importing it at the top would add that to every CLI run."""
    env = {**os.environ, "PYTHONPATH": str(Path(timebin_bb84.__file__).parents[1])}
    code = "import sys, timebin_bb84.cli; assert 'concurrent.futures' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
