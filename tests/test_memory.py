"""Traced memory of the requests that rank all m! orders, at m = 8.

``predict`` and ``average`` walk the 40,320 orders block by block: they may
hold a few m!-long result vectors and one block of model rows or table
cells, but no m!-sized order, position, label or text state.  Each request
runs in-process with every package cache empty, as in a fresh process,
under ``tracemalloc`` (which also counts NumPy's array buffers).
"""

import contextlib
import io
import sys
import tracemalloc

import numpy as np
import pytest

from oofa import Dataset, Design, build_matrix, parse_model, write_design
from oofa.cli import main
from oofa.perms import order_array

MODELS = "pwo,tpwo:invh,cp,rs2,nn"
#: Bounds in MB.  The whole (m!, m) label, position and text state of the
#: table output alone would take more.
AVERAGE_MB = 10.0
PREDICT_MB = 8.0


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "oofa" or module is None:
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(value, "__module__", "").startswith("oofa"):
                value.cache_clear()


@pytest.fixture(scope="module")
def m8_files(tmp_path_factory):
    """An 80-run m = 8 dataset with a planted PWO effect, and its pwo fit file."""
    root = tmp_path_factory.mktemp("m8")
    rng = np.random.default_rng(8)
    orders = order_array(8)[rng.choice(40320, size=80, replace=False)].tolist()
    x = build_matrix(parse_model("pwo"), orders).values
    beta = np.concatenate([[50.0], rng.normal(0.0, 1.5, size=x.shape[1] - 1)])
    y = x @ beta + rng.normal(0.0, 1.0, size=len(orders))
    data = root / "m8.csv"
    write_design(data, Dataset(Design.from_orders(orders, labels=tuple("ABCDEFGH")), y))
    fit = root / "pwo.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["fit", "--model", "pwo", "--data", str(data), "--out", str(fit)]) == 0
    return {"data": str(data), "fit": str(fit), "out": root / "out.txt"}


def _peak_mb(argv, out_path) -> float:
    """Peak traced MB of one CLI request, its table written to ``out_path``."""
    _clear_caches()
    with open(out_path, "w", encoding="utf-8", newline="") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0, argv
    return peak / 2**20


def _rows_written(path, fmt) -> int:
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    return text.count("\n  {") if fmt == "json" else text.count("\n") - 1


def test_average_holds_no_m_factorial_sized_state(m8_files):
    argv = ["average", "--data", m8_files["data"], "--models", MODELS]
    peak = _peak_mb(argv, m8_files["out"])
    assert _rows_written(m8_files["out"], "csv") == 40320
    assert peak <= AVERAGE_MB, f"average peaked at {peak:.1f} MB"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_predict_holds_no_m_factorial_sized_state(m8_files, fmt):
    argv = ["predict", "--fit", m8_files["fit"], "--format", fmt]
    peak = _peak_mb(argv, m8_files["out"])
    assert _rows_written(m8_files["out"], fmt) == 40320
    assert peak <= PREDICT_MB, f"predict --format {fmt} peaked at {peak:.1f} MB"
