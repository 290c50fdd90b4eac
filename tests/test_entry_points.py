"""The package names the benchmark reads still resolve where it reads them.

``perfbench/tracing.py`` wraps the ``LAYER_FUNCTIONS`` entries on their layer
modules, and its ``probes()`` call package functions through module
attributes and read ``Design.runs``, ``PredictionTable.perms`` and
``AveragedPrediction.perms``.  The benchmark's files do not change with the
package, so a name that moves must stay reachable where the benchmark reads
it, or ``--trace 1`` breaks.  These tests read the benchmark's source; they do
not import it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from oofa import CandidateSet, Permutation, average_predictions, ols_fit, parse_model, predict_all
from oofa.dataio import read_design

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TREE = ast.parse(TRACING.read_text(encoding="utf-8"))
FUNCTIONS = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}


def _layer_functions() -> dict:
    (value,) = [node.value for node in TREE.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]]
    return ast.literal_eval(value)


def _dotted(node) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"], or None for anything but a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _probe_names() -> list[str]:
    """Every dotted name in ``probes`` and ``search_probes`` that starts at one
    of the package modules ``probes`` imports from ``oofa``."""
    (modules,) = [{alias.name for alias in node.names}
                  for node in ast.walk(FUNCTIONS["probes"])
                  if isinstance(node, ast.ImportFrom) and node.module == "oofa"]
    names = set()
    for function in ("probes", "search_probes"):
        for node in ast.walk(FUNCTIONS[function]):
            parts = _dotted(node)
            if parts and len(parts) > 1 and parts[0] in modules:
                names.add(".".join(parts))
    return sorted(names)


def _resolve(dotted: str):
    root, *attrs = dotted.split(".")
    value = importlib.import_module(f"oofa.{root}")
    for attr in attrs:
        value = getattr(value, attr)
    return value


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in _layer_functions().items() for name in names])
def test_every_traced_layer_function_resolves_on_its_layer(layer, name):
    assert callable(getattr(importlib.import_module(f"oofa.{layer}"), name))


def test_the_probes_read_names_that_resolve():
    names = _probe_names()
    # the probes' memoized entry points, whose caches they clear between runs
    assert {"perms.enumerate_permutations.cache_clear", "criteria.factorial_moments.cache_clear",
            "models.full_factorial_matrix.cache_clear", "models.build_matrix",
            "dataio.table_to_csv", "dataio.fit_from_dict"} <= set(names)
    for dotted in names:
        _resolve(dotted)


def test_the_probes_read_orders_as_permutations(data_dir):
    """``Design.runs`` and both tables' ``perms`` give each row's order as a
    :class:`~oofa.adaptors.Permutation`, whose order and label the probes read."""
    data = read_design(data_dir / "m3_runs.csv")
    fit = ols_fit(parse_model("pwo"), data)
    table = predict_all(fit)
    averaged = average_predictions(CandidateSet.from_akaike([fit]))
    for orders, perms in ((data.design.orders, data.design.runs), (table.orders, table.perms),
                          (averaged.orders, averaged.perms)):
        assert all(isinstance(perm, Permutation) for perm in perms)
        assert [perm.order for perm in perms] == [tuple(row) for row in orders.tolist()]
        assert perms[0].label() == " ".join(map(str, orders[0].tolist()))
