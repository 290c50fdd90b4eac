"""What each request imports: the lazy ``oofa`` namespace and the modules
every CLI command loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import oofa
from oofa.cli import build_parser, main

#: Every name ``oofa`` exports besides ``__version__``.
EXPORTED = {
    "AveragedPrediction", "CandidateSet", "CapacityError", "CompoundMember",
    "CompoundSpec", "CriterionKind", "CriterionSpec", "Dataset", "Design",
    "EstimabilityError", "Family", "FitResult", "MAX_COMPONENTS", "ModelSpec",
    "OofaError", "OrthogonalCoding", "ParseError", "Permutation", "PredictionTable",
    "SaturatedModelError", "SearchConfig", "SearchFailureError", "SearchResult",
    "StdPositions", "Taper", "TaperKind", "UnsupportedModelError", "ValidationError",
    "a_criterion", "akaike_weights", "apv", "av", "average_predictions", "build_matrix",
    "check_capacity", "combine_predictions", "compound", "criterion_value",
    "d_criterion", "enumerate_permutations", "exchange_search", "full_factorial_matrix",
    "information_criteria", "ols_fit", "orthogonal_coding", "parse_model",
    "predict_all", "predict_rows", "pwo_to_ltpwo_maps", "random_design",
    "rank_descending", "read_design", "standardize", "term_labels", "top_k",
    "write_design",
}

#: Submodules every command loads: what reading or writing a table needs.
BASE = {"cli", "errors", "perms", "design", "models", "dataio"}
FIT = BASE | {"fitting"}

#: (argv, the ``oofa.*`` submodules the command loads and no others); ``{data}``
#: is ``tests/data`` and ``{tmp}`` a scratch directory holding ``pwo.json``.
COMMANDS = {
    "enumerate": (["enumerate", "--m", "4"], BASE),
    "matrix": (["matrix", "--model", "cp", "--design", "{data}/m4_n24_block.csv"], BASE),
    "criteria": (["criteria", "--design", "{data}/m4_n24_block.csv", "--models", "pwo,cp",
                  "--criterion", "apv"], BASE | {"criteria"}),
    "design": (["design", "--m", "4", "--runs", "12", "--models", "pwo", "--restarts", "1",
                "--max-passes", "1", "--out", "{tmp}/d4.csv"], BASE | {"criteria", "search"}),
    "fit": (["fit", "--model", "pwo", "--data", "{data}/m3_runs.csv"], FIT),
    "surface": (["surface", "--data", "{data}/m3_runs.csv", "--grid", "3"],
                FIT | {"ranking"}),
    "predict": (["predict", "--fit", "{tmp}/pwo.json"], FIT | {"ranking"}),
    "average": (["average", "--data", "{data}/m4_n24_block.csv", "--models", "pwo,cp"],
                FIT | {"ranking", "averaging"}),
}

#: Runs ``cli.main`` on the JSON argv in ``sys.argv[1]``, then prints the exit
#: code and the package modules loaded, with the command's output discarded.
PROBE = """
import contextlib, io, json, sys
from oofa.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "oofa")]))
"""


def _run(code, *args):
    src = os.path.dirname(os.path.dirname(oofa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bare_import_loads_no_submodule():
    code = ("import json, sys, oofa; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'oofa']))")
    assert _run(code) == ["oofa"]


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_its_modules(command, data_dir, tmp_path, capsys):
    assert main(["fit", "--model", "pwo", "--data", str(data_dir / "m3_runs.csv"),
                 "--out", str(tmp_path / "pwo.json")]) == 0
    capsys.readouterr()
    argv, expected = COMMANDS[command]
    argv = [arg.format(data=data_dir, tmp=tmp_path) for arg in argv]
    code, loaded = _run(PROBE, json.dumps(argv))
    assert code == 0
    assert set(loaded) == {"oofa"} | {f"oofa.{name}" for name in expected}


def test_every_subcommand_is_probed():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(sub.choices) == set(COMMANDS)


def test_exported_names_resolve_to_their_home_objects():
    assert set(oofa.__all__) == EXPORTED | {"__version__"}
    for name in EXPORTED:
        home = importlib.import_module(f"oofa.{oofa._HOME[name]}")
        assert getattr(oofa, name) is getattr(home, name), name


def test_namespace_listing_and_star_import():
    assert set(oofa.__all__) <= set(dir(oofa))
    namespace = {}
    exec("from oofa import *", namespace)
    assert set(oofa.__all__) <= set(namespace)
    assert namespace["__version__"] == oofa.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        oofa.no_such_name  # noqa: B018
