"""The two-process split of long m!-row requests (``oofa.split``).

A request run as its own process (``cli.run``) walks the m! orders and
writes a long table half in a forked child; ``cli.main`` called in-process
never forks.  Each request here runs through ``cli.run`` in a subprocess
whose ``os.fork`` is wrapped to log each child, or to make the child fail,
and then must match the serial output of ``main`` byte for byte, or end in
one ``oofa: error:`` line.  Every subprocess runs in its own process group,
which must be empty once it has ended: no child outlives its request.
"""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import oofa
from oofa import Dataset, Design, build_matrix, parse_model, write_design
from oofa.cli import main
from oofa.perms import order_array

#: Runs ``cli.run`` on ``sys.argv[3:]`` with ``os.fork`` wrapped: each child's
#: pid is logged to the file ``sys.argv[2]``, and ``sys.argv[1]`` says what
#: else happens: nothing ("log"), the fork fails ("busy"), or the child exits
#: with status 3 ("exit"), is killed ("signal") or raises in its half ("raise").
RUN_SCRIPT = """
import os, signal, sys
from oofa import cli, dataio, ranking
from oofa.errors import EstimabilityError

mode, log, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
real_fork = os.fork

def boom(*args, **kwargs):
    raise EstimabilityError("boom in the child")

def fork():
    if mode == "busy":
        raise BlockingIOError(11, "Resource temporarily unavailable")
    pid = real_fork()
    if pid:
        with open(log, "a") as handle:
            handle.write(f"{pid}\\n")
    elif mode == "exit":
        os._exit(3)
    elif mode == "signal":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "raise":
        ranking.predict_rows = dataio._block = boom
    return pid

os.fork = fork
cli.run(argv)
"""

#: (argv, children forked): the prediction walk and the table each fork once
#: at m = 8; a 100-row table and a walk of five 4,096-order blocks do not.
REQUESTS = {
    "predict": (["predict", "--fit", "{pwo}"], 2),
    "predict-json": (["predict", "--fit", "{pwo}", "--format", "json"], 2),
    "predict-top": (["predict", "--fit", "{pwo}", "--top", "100"], 1),
    "average": (["average", "--data", "{data}", "--models", "pwo,cp,nn"], 2),
    "average-quoted-json": (["average", "--data", "{quoted}", "--models", "pwo,rs2",
                             "--format", "json"], 2),
    "enumerate": (["enumerate", "--m", "8"], 1),
    "enumerate-m7": (["enumerate", "--m", "7"], 1),
    "predict-m7": (["predict", "--fit", "{pwo7}"], 1),
}


def _write_data(path, m, labels):
    rng = np.random.default_rng(m)
    orders = order_array(m)[rng.choice(len(order_array(m)), size=80, replace=False)].tolist()
    x = build_matrix(parse_model("pwo"), orders).values
    y = x @ rng.normal(0.0, 1.5, size=x.shape[1]) + rng.normal(0.0, 1.0, size=len(orders))
    write_design(path, Dataset(Design.from_orders(orders, labels=labels), y))
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Datasets at m = 8 (plain and with labels that need CSV quoting) and
    m = 7, and a pwo fit file of each plain one."""
    root = tmp_path_factory.mktemp("split")
    named = {"data": _write_data(root / "m8.csv", 8, tuple("ABCDEFGH")),
             "quoted": _write_data(root / "quoted.csv", 8,
                                   ("a,b", 'c"d', "e e", "f", "g", "h", "i", "j")),
             "data7": _write_data(root / "m7.csv", 7, tuple("ABCDEFG"))}
    for key, data in (("pwo", named["data"]), ("pwo7", named["data7"])):
        named[key] = str(root / f"{key}.json")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["fit", "--model", "pwo", "--data", data, "--out", named[key]]) == 0
    return named


def _env():
    src = os.path.dirname(os.path.dirname(oofa.__file__))
    return dict(os.environ, PYTHONPATH=src)


def _serial(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _split(mode, argv, log):
    """(exit code, stdout, stderr) of the request through ``cli.run`` in a
    subprocess of its own process group, which must be empty once the
    request has ended."""
    proc = subprocess.Popen([sys.executable, "-c", RUN_SCRIPT, mode, str(log), *argv], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    _assert_group_empty(proc.pid)
    return proc.returncode, out, err


def _assert_group_empty(pgid):
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


def _argv(name, files):
    return [arg.format(**files) for arg in REQUESTS[name][0]]


def _children(log):
    return log.read_text().split() if log.exists() else []


def _error_lines(stderr):
    return [line for line in stderr.decode().splitlines() if not line.startswith("# config:")]


@pytest.mark.parametrize("name", REQUESTS)
def test_split_output_equals_serial_output(name, files, tmp_path):
    argv = _argv(name, files)
    log = tmp_path / "children"
    assert _split("log", argv, log) == _serial(argv)
    assert len(_children(log)) == REQUESTS[name][1]


@pytest.mark.parametrize("name", ["predict", "average"])
def test_a_failed_fork_walks_and_writes_in_one_process(name, files, tmp_path):
    argv = _argv(name, files)
    log = tmp_path / "children"
    assert _split("busy", argv, log) == _serial(argv)
    assert _children(log) == []


@pytest.mark.parametrize("mode, error", [
    ("exit", "OofaError: the forked half of the request ended with exit status 3"),
    ("signal", "OofaError: the forked half of the request ended with signal 9"),
    ("raise", "EstimabilityError: boom in the child"),
])
@pytest.mark.parametrize("name", ["predict-top", "enumerate"])  # the walk, the table
def test_a_failing_child_is_one_error_line(name, mode, error, files, tmp_path):
    log = tmp_path / "children"
    code, _, stderr = _split(mode, _argv(name, files), log)
    assert code == 1, stderr
    assert _error_lines(stderr) == [f"oofa: error: {error}"]
    assert len(_children(log)) == 1


@pytest.mark.parametrize("name", ["predict", "average"])
def test_an_early_closing_reader_is_one_error_line(name, files, tmp_path):
    """The reader leaves after the header, while the request writes its own
    half of the table: the child is killed and reaped, and the request ends
    with exit 2."""
    log = tmp_path / "children"
    with subprocess.Popen([sys.executable, "-c", RUN_SCRIPT, "log", str(log), *_argv(name, files)],
                          env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            assert proc.stdout.readline().startswith(b"order," if name == "predict" else b"pos_1,")
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
    _assert_group_empty(proc.pid)
    assert code == 2, stderr
    assert _error_lines(stderr) == ["oofa: error: BrokenPipeError: [Errno 32] Broken pipe"]
    assert len(_children(log)) == 2
