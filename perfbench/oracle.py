"""Locations inside the checkout, and read-only access to the test oracle."""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "oofa" / "__init__.py"
ORACLE = ROOT / "tests" / "_oracle.py"


def missing_program() -> list[str]:
    """Files the benchmark needs from the checkout but cannot find."""
    return [str(path.relative_to(ROOT)) for path in (PACKAGE, ORACLE) if not path.is_file()]


@functools.cache
def oracle():
    """The brute-force reference module ``tests/_oracle.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("_oofa_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
