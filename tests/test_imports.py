"""What each request imports and how it starts and ends: the lazy ``oofa``
namespace, the modules every CLI command loads, and the ``python -m oofa``
process, which ends through ``cli.run``."""

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oofa
from oofa import cli
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
BASE = {"cli", "errors", "records", "perms", "design", "models", "dataio"}
#: The commands on design files, and on datasets and fits, with their handlers.
DESIGNS = BASE | {"designcmds"}
FIT = BASE | {"datacmds", "fitting"}

#: (argv, the ``oofa.*`` submodules the command loads and no others); ``{data}``
#: is ``tests/data`` and ``{tmp}`` a scratch directory holding ``pwo.json``.
COMMANDS = {
    "enumerate": (["enumerate", "--m", "4"], DESIGNS),
    "matrix": (["matrix", "--model", "cp", "--design", "{data}/m4_n24_block.csv"], DESIGNS),
    "criteria": (["criteria", "--design", "{data}/m4_n24_block.csv", "--models", "pwo,cp",
                  "--criterion", "apv"], DESIGNS | {"criteria"}),
    "design": (["design", "--m", "4", "--runs", "12", "--models", "pwo", "--restarts", "1",
                "--max-passes", "1", "--out", "{tmp}/d4.csv"],
               DESIGNS | {"criteria", "search", "jsonio"}),
    "fit": (["fit", "--model", "pwo", "--data", "{data}/m3_runs.csv", "--out", "{tmp}/fit.json"],
            FIT | {"jsonio"}),
    "surface": (["surface", "--data", "{data}/m3_runs.csv", "--grid", "3"],
                FIT | {"ranking"}),
    "predict": (["predict", "--fit", "{tmp}/pwo.json"], FIT | {"ranking", "jsonio"}),
    "average": (["average", "--data", "{data}/m4_n24_block.csv", "--models", "pwo,cp"],
                FIT | {"ranking", "averaging"}),
}

#: Runs ``cli.main`` on the JSON argv in ``sys.argv[1]`` with the JSON ``fork``
#: in ``sys.argv[2]``, then prints the exit code and the package modules
#: loaded.  The command writes to a file, as ``cli.run`` does, which is
#: discarded.  ``dataclasses`` cannot be imported: no request needs it.
PROBE = """
import contextlib, json, os, sys
sys.modules["dataclasses"] = None
from oofa.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(json.loads(sys.argv[1]), fork=json.loads(sys.argv[2]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "oofa")]))
"""


def _env():
    """The test environment with ``oofa`` importable and stdout block-buffered."""
    src = os.path.dirname(os.path.dirname(oofa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bare_import_loads_no_submodule():
    code = ("import json, sys, oofa; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'oofa']))")
    assert _run(code) == ["oofa"]


def _command_argv(command, data_dir, tmp_path, capsys):
    """The argv of ``COMMANDS[command]``, with ``pwo.json`` written to ``tmp_path``."""
    assert main(["fit", "--model", "pwo", "--data", str(data_dir / "m3_runs.csv"),
                 "--out", str(tmp_path / "pwo.json")]) == 0
    capsys.readouterr()
    return [arg.format(data=data_dir, tmp=tmp_path) for arg in COMMANDS[command][0]]


def _loaded_modules(argv, fork):
    """The ``oofa`` modules a request loads, run by ``main`` with ``fork``
    without ``dataclasses``; the request must succeed."""
    code, loaded = _run(PROBE, json.dumps(argv), json.dumps(fork))
    assert code == 0
    return set(loaded)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_its_modules(command, data_dir, tmp_path, capsys):
    argv = _command_argv(command, data_dir, tmp_path, capsys)
    expected = COMMANDS[command][1]
    assert _loaded_modules(argv, False) == {"oofa"} | {f"oofa.{name}" for name in expected}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_forking_command_loads_only_its_modules(command, data_dir, tmp_path, capsys):
    """As ``cli.run`` calls ``main``: with ``fork``, a request whose walks and
    tables are too short to split never loads ``oofa.split``."""
    argv = _command_argv(command, data_dir, tmp_path, capsys)
    expected = COMMANDS[command][1]
    assert _loaded_modules(argv, True) == {"oofa"} | {f"oofa.{name}" for name in expected}


def test_a_table_that_splits_loads_split():
    """The 5,040-row table is five blocks long, so with ``fork`` it is split;
    without, it is not."""
    argv = ["enumerate", "--m", "7"]
    expected = {"oofa"} | {f"oofa.{name}" for name in DESIGNS}
    assert _loaded_modules(argv, True) == expected | {"oofa.split"}
    assert _loaded_modules(argv, False) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_the_adaptors(command, data_dir, tmp_path, capsys):
    """Not even for JSON output, which loads ``oofa.jsonio`` and nothing else
    more: the adaptors serve callers that want objects, and no command does."""
    argv = _command_argv(command, data_dir, tmp_path, capsys)
    if command not in ("fit", "design"):
        argv += ["--format", "json"]
    loaded = _loaded_modules(argv, False)
    assert "oofa.adaptors" not in loaded
    assert loaded == {"oofa", "oofa.jsonio"} | {f"oofa.{name}" for name in COMMANDS[command][1]}


#: Runs ``cli.main`` on the argv after ``sys.argv[0]`` and prints the exit code
#: and whether ``json`` was imported; imports nothing beyond the request's own.
JSON_PROBE = """
import contextlib, os, sys
from oofa.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


@pytest.mark.parametrize("command, fmt, loads_json", [
    ("enumerate", "csv", False), ("matrix", "csv", False), ("criteria", "csv", False),
    ("average", "csv", False), ("enumerate", "json", True),
])
def test_csv_requests_load_no_json(command, fmt, loads_json, data_dir, tmp_path, capsys):
    """``json`` is imported only by ``oofa.jsonio`` and where ``predict`` reads
    its fit file; a JSON table, the last case, shows that the probe sees it."""
    argv = _command_argv(command, data_dir, tmp_path, capsys) + ["--format", fmt]
    done = subprocess.run([sys.executable, "-c", JSON_PROBE, *argv], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", str(loads_json)]


#: Bytes of ``oofa`` source each command loads, the ``.py`` file of every
#: package module it imports, as pinned when the command handlers, the JSON
#: I/O and the adaptors left the modules every command loads.  Each request
#: compiles all of it (the benchmark runs from source, with no bytecode
#: cache), so the sources a command loads may shrink but not grow.
SOURCE_BYTES = {
    "enumerate": 65127, "matrix": 65127, "criteria": 79521, "design": 102583,
    "fit": 83673, "surface": 85033, "predict": 92649, "average": 92190,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_at_most_its_source_bytes(command, data_dir, tmp_path, capsys):
    argv = _command_argv(command, data_dir, tmp_path, capsys)
    package = Path(oofa.__file__).parent
    files = [package / ("__init__.py" if name == "oofa" else f"{name.split('.')[1]}.py")
             for name in _loaded_modules(argv, False)]
    assert sum(path.stat().st_size for path in files) <= SOURCE_BYTES[command]


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


# -- the process: python -m oofa ends through cli.run ------------------------


def _assert_process_matches_main(argv, capsys):
    """``python -m oofa *argv`` and ``main(argv)`` agree on stdout, stderr, the
    exit code and every ``--out`` file, byte for byte."""
    outs = [Path(path) for flag, path in zip(argv, argv[1:]) if flag == "--out"]
    code = main(argv)
    captured = capsys.readouterr()
    expected = (code, captured.out, captured.err, [path.read_bytes() for path in outs])
    for path in outs:
        path.unlink()
    done = subprocess.run([sys.executable, "-m", "oofa", *argv], env=_env(), capture_output=True)
    got = (done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8"),
           [path.read_bytes() for path in outs])
    assert got == expected
    return code


@pytest.mark.parametrize("command", COMMANDS)
def test_python_m_oofa_matches_main(command, data_dir, tmp_path, capsys):
    argv = _command_argv(command, data_dir, tmp_path, capsys)
    assert _assert_process_matches_main(argv, capsys) == 0


def test_python_m_oofa_matches_main_on_a_rank_deficient_fit(tmp_path, capsys):
    path = tmp_path / "two_orders.csv"
    path.write_text("pos_1,pos_2,pos_3,y\nA,B,C,1\nB,A,C,2\nA,B,C,3\nB,A,C,5\n",
                    encoding="utf-8")
    assert _assert_process_matches_main(["fit", "--model", "pwo", "--data", str(path)],
                                        capsys) == 1


def test_python_m_oofa_matches_main_on_a_missing_design(tmp_path, capsys):
    argv = ["criteria", "--design", str(tmp_path / "missing.csv"), "--models", "pwo",
            "--criterion", "apv"]
    assert _assert_process_matches_main(argv, capsys) == 2


def test_a_profiled_request_still_writes_its_profile(tmp_path):
    """Under a profiler the request exits normally, so cProfile writes its file."""
    profile = tmp_path / "prof.out"
    done = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(profile),
                           "-m", "oofa", "enumerate", "--m", "3"], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("pos_1,pos_2,pos_3\n")
    assert profile.stat().st_size > 0


def test_console_script_starts_through_run():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["oofa", "=", '"oofa.cli:run"']


def _assert_one_error_line(code, stderr, name="BrokenPipeError"):
    lines = [line for line in stderr.decode("utf-8").splitlines()
             if not line.startswith("# config:")]
    assert code == 2, stderr
    assert len(lines) == 1 and lines[0].startswith(f"oofa: error: {name}: "), stderr


def _closed_stdout_request(argv):
    """Run ``python -m oofa *argv`` on a pipe whose reader closed before the start."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "oofa", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=_env())
    finally:
        os.close(write)
    return done.returncode, done.stderr


def test_stdout_closed_before_the_request_is_one_error_line():
    """The table fits the stdout buffer, so the final flush is the failing write."""
    _assert_one_error_line(*_closed_stdout_request(["enumerate", "--m", "3"]))


def test_a_failed_request_on_a_closed_stdout_reports_its_own_error_only(data_dir, tmp_path):
    """``--out`` is written before stdout, so a fit whose ``--out`` cannot be
    opened prints nothing; the request reports that error, and the flush of
    its closed stdout adds none."""
    argv = ["fit", "--model", "pwo", "--data", str(data_dir / "m3_runs.csv"),
            "--out", str(tmp_path / "missing" / "fit.json")]
    _assert_one_error_line(*_closed_stdout_request(argv), name="FileNotFoundError")


class _GoneReader(io.StringIO):
    """A stdout whose reader has gone: what it holds can never be flushed."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("code", [0, 1])
def test_run_reports_a_failed_flush_only_after_a_request_that_succeeded(
    monkeypatch, capsys, code
):
    """The request has buffered output when the final flush fails.  A request
    that failed has printed its own error line and keeps its exit code; one
    that succeeded reports the flush and exits 2."""
    def request(argv, fork=False):
        print("buffered")
        return code

    def exit_now(status):
        raise SystemExit(status)

    monkeypatch.setattr(cli, "main", request)
    monkeypatch.setattr(os, "_exit", exit_now)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    if hasattr(sys, "monitoring"):
        monkeypatch.setattr(sys.monitoring, "get_tool", lambda tool: None)
    monkeypatch.setattr(sys, "stdout", _GoneReader())
    with pytest.raises(SystemExit) as exited:
        cli.run([])
    stderr = capsys.readouterr().err
    if code == 0:
        _assert_one_error_line(exited.value.code, stderr.encode())
    else:
        assert (exited.value.code, stderr) == (code, "")


def test_stdout_closed_mid_table_is_one_error_line():
    """The m = 8 table is far larger than a pipe holds, so a write inside the
    table fails once the reader has gone."""
    proc = subprocess.Popen([sys.executable, "-m", "oofa", "enumerate", "--m", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    try:
        assert proc.stdout.readline() == b"pos_1,pos_2,pos_3,pos_4,pos_5,pos_6,pos_7,pos_8\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    _assert_one_error_line(code, stderr)
