import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_configure(config):
    """Stop the run when PYTHONPATH names another tree's package.

    pyproject.toml's ``pythonpath = ["src"]`` puts this checkout's ``src/``
    ahead of PYTHONPATH, so ``PYTHONPATH=<other tree>/src python -m pytest``
    would silently test this checkout instead of the other tree.
    """
    import timebin_bb84

    imported = Path(timebin_bb84.__file__).resolve().parent
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        named = Path(entry or ".").resolve() / "timebin_bb84"
        if (named / "__init__.py").is_file():
            if named != imported:
                pytest.exit(
                    f"PYTHONPATH names {named}, but the tests import {imported}: pyproject.toml's "
                    "pythonpath puts this checkout's src/ first. Run the other tree's tests from "
                    "its own checkout.",
                    returncode=4,
                )
            return
