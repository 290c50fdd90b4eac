"""The two-process split of long m!-row requests (``oofa.split``).

A request run as its own process (``cli.run``) walks the m! orders and
writes a long table half in a forked child; ``cli.main`` called in-process
never forks.  Each request here runs through ``cli.run`` in a subprocess
whose ``os.fork`` is wrapped to log each child, or to make the child fail,
and then must match the serial output of ``main`` byte for byte, or end in
one ``oofa: error:`` line.  Every subprocess runs in its own process group,
which must be empty once it has ended: no child outlives its request.  The
child's move off its parent's CPU is checked from the calls it makes, not
from where the scheduler happens to run it.
"""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import oofa
from oofa import (Dataset, Design, build_matrix, models, parse_model, ranking, split,
                  write_design)
from oofa.cli import main
from oofa.perms import order_array

#: Runs ``cli.run`` on ``sys.argv[3:]`` with ``os.fork`` wrapped: each child's
#: pid is logged to the file ``sys.argv[2]``, and ``sys.argv[1]`` says what
#: else happens: nothing ("log"), the fork fails ("busy"), the child exits
#: with status 3 ("exit"), is killed ("signal") or raises in its half
#: ("raise"), or the child's ``os.sched_setaffinity`` raises ("deny") or is
#: missing ("missing").  With "place", the file ``sys.argv[2] + ".cpus"``
#: gets a line ``fork <allowed CPUs> <CPU>`` for what ``split._cpus`` reads
#: before each fork, and a line ``set <CPUs>`` for each affinity the child sets.
RUN_SCRIPT = """
import os, signal, sys
from oofa import cli, dataio, ranking, split
from oofa.errors import EstimabilityError

mode, log, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
real_fork, real_cpus = os.fork, split._cpus
real_setaffinity = getattr(os, "sched_setaffinity", None)

def boom(*args, **kwargs):
    raise EstimabilityError("boom in the child")

def place(line):
    with open(log + ".cpus", "a") as handle:
        handle.write(line + "\\n")

def cpus():
    allowed, here = real_cpus()
    place(f"fork {','.join(map(str, sorted(allowed)))} {here}")
    return allowed, here

def setaffinity(pid, cpus):
    if mode == "deny":
        raise PermissionError(1, "Operation not permitted")
    place(f"set {','.join(map(str, sorted(cpus)))}")
    real_setaffinity(pid, cpus)

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
if mode == "place":
    split._cpus = cpus
if mode in ("place", "deny"):
    os.sched_setaffinity = setaffinity
elif mode == "missing":
    del os.sched_setaffinity
cli.run(argv)
"""

#: (argv, children forked): at m = 8 the table forks once, and so does the
#: prediction walk of two or more models; a single model's walk, a 100-row
#: table and the m = 7 walk do not.  The walk forks from four units of
#: ranking.WALK_SPLIT_ROWS = 4,096 orders on: m = 7's 5,040 orders are two.
REQUESTS = {
    "predict": (["predict", "--fit", "{pwo}"], 1),
    "predict-json": (["predict", "--fit", "{pwo}", "--format", "json"], 1),
    "predict-top": (["predict", "--fit", "{pwo}", "--top", "100"], 0),
    "average": (["average", "--data", "{data}", "--models", "pwo,cp,nn"], 2),
    "average-top": (["average", "--data", "{data}", "--models", "pwo,cp,nn", "--top", "100"],
                    1),
    "average-quoted-json": (["average", "--data", "{quoted}", "--models", "pwo,rs2",
                             "--format", "json"], 2),
    "enumerate": (["enumerate", "--m", "8"], 1),
    "enumerate-m7": (["enumerate", "--m", "7"], 1),
    "predict-m7": (["predict", "--fit", "{pwo7}"], 1),
    "average-m7": (["average", "--data", "{data7}", "--models", "pwo,cp,nn"], 1),
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


def _split(mode, argv, log, preexec_fn=None):
    """(exit code, stdout, stderr) of the request through ``cli.run`` in a
    subprocess of its own process group, which must be empty once the
    request has ended."""
    proc = subprocess.Popen([sys.executable, "-c", RUN_SCRIPT, mode, str(log), *argv], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, preexec_fn=preexec_fn)
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


def test_a_walk_is_cut_between_two_of_its_blocks():
    assert ranking.WALK_SPLIT_ROWS % models.BLOCK_ROWS == 0


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
@pytest.mark.parametrize("name", ["average-top", "enumerate"])  # the walk, the table
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
    assert len(_children(log)) == REQUESTS[name][1]


#: where the child can be moved: the affinity can be set and two CPUs are allowed
placeable = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two allowed CPUs")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("name", ["average", "predict"])
def test_a_request_on_one_cpu_forks_no_child(name, files, tmp_path):
    argv = _argv(name, files)
    log = tmp_path / "children"
    one_cpu = min(os.sched_getaffinity(0))
    assert _split("log", argv, log,
                  preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu})) == _serial(argv)
    assert _children(log) == []


@placeable
def test_split_cpus_reads_the_cpu_this_process_runs_on():
    allowed = os.sched_getaffinity(0)
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})  # returns once this thread runs on ``cpu``
            assert split._cpus() == ({cpu}, cpu)
    finally:
        os.sched_setaffinity(0, allowed)


@placeable
def test_the_child_starts_off_the_requests_cpu_and_gets_its_mask_back(files, tmp_path):
    """Each child's first affinity leaves out the CPU its parent ran on at
    the fork, and its last is the mask it inherited."""
    argv = _argv("average", files)
    log = tmp_path / "children"
    assert _split("place", argv, log) == _serial(argv)
    forks = []
    for line in (tmp_path / "children.cpus").read_text().splitlines():
        kind, *fields = line.split()
        if kind == "fork":
            forks.append(({int(cpu) for cpu in fields[0].split(",")}, int(fields[1]), []))
        else:
            forks[-1][2].append({int(cpu) for cpu in fields[0].split(",")})
    assert len(forks) == len(_children(log)) == REQUESTS["average"][1]
    for allowed, here, calls in forks:
        assert here in allowed
        assert calls[0] == allowed - {here}
        assert calls[-1] == allowed


@placeable
@pytest.mark.parametrize("mode", ["deny", "missing"])
@pytest.mark.parametrize("name", ["average", "predict"])
def test_a_child_that_cannot_move_runs_where_it_starts(name, mode, files, tmp_path):
    argv = _argv(name, files)
    log = tmp_path / "children"
    assert _split(mode, argv, log) == _serial(argv)
    assert len(_children(log)) == REQUESTS[name][1]
