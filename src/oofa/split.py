"""Split a long walk of rows between this process and one forked child.

A request run by ``cli.run`` owns its whole process, so it may fork.  A
walk of the m! orders (:func:`walk`) of at least four
:data:`~oofa.ranking.WALK_SPLIT_ROWS`-order units, or a table
(:func:`write`) of at least four blocks, is cut at the boundary nearest its
middle (:func:`~oofa.models.split_start`): a forked child does the second half
while this process does the first.  The child starts on a CPU other than
the one this process is running on (:func:`_move_off`), so the halves run
on two cores.  Both halves run the per-block code of the serial path, over
the same blocks, so every output byte is the same.  The child hands its
half back through memory both processes share: the walk's output arrays
live in anonymous shared mappings made before the fork, and the table's
second half is text in a memfd file, which this process copies out after
its own half.  Shorter walks and tables, the prediction walk of a single
model, tables written to a stream without a binary buffer, processes that
may run on one CPU only, and hosts without ``os.fork`` or
``os.memfd_create`` stay in one process and never import this module.
Library calls never come here: ``average_predictions`` and
``write_table`` fork only when the caller passes ``fork=True``, as the CLI
does from ``cli.run`` alone.

A process rather than a thread: a thread walked the orders as fast, but
glibc gives each thread its own heap arena, which raised the peak resident
size of an m = 8 ``average`` from 41 to 48 MB.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from typing import IO, Callable, NoReturn, Sequence

import numpy as np

from .errors import OofaError


def walk(fill: Callable, n: int, start: int, shapes: Sequence[tuple]) -> list[np.ndarray]:
    """One float array of shape ``(*shape, n)`` per shape in ``shapes``, filled
    by ``fill(arrays, begin, stop)``, which fills rows begin..stop of each
    from the blocks that begin there; a forked child fills rows start..n."""
    arrays = [np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape) * n)).reshape(*shape, n)
              for shape in shapes]  # float64, in mappings the child shares
    _in_halves(lambda: fill(arrays, 0, start), lambda: fill(arrays, start, n))
    return arrays


def write(stream: IO[str], write_rows: Callable, n: int, start: int) -> None:
    """Write rows 0..n of a table to the text ``stream``, which has a binary
    ``buffer``, with ``write_rows(stream, begin, stop)``, which writes the
    blocks that begin there; a forked child formats rows start..n."""
    fd = os.memfd_create("oofa-table")
    try:
        _in_halves(lambda: write_rows(stream, 0, start),
                   lambda: _write_text(fd, stream, write_rows, start, n))
        stream.flush()
        os.lseek(fd, 0, os.SEEK_SET)
        chunk = bytearray(1 << 16)
        while size := os.readv(fd, [chunk]):
            stream.buffer.write(memoryview(chunk)[:size])
    finally:
        os.close(fd)


def _write_text(fd: int, stream: IO[str], write_rows: Callable, start: int, stop: int) -> None:
    """Rows start..stop written to the file ``fd``, encoded as ``stream`` encodes."""
    with open(fd, "w", encoding=stream.encoding, errors=stream.errors, newline="\n",
              closefd=False) as text:
        write_rows(text, start, stop)


def _in_halves(mine: Callable[[], None], theirs: Callable[[], None]) -> None:
    """Run ``theirs`` in a forked child while ``mine`` runs here, and return
    once both have ended.

    What the child raises is raised here, after ``mine`` has ended without
    raising, so the error that ends the request is the one the serial walk
    would have met first.  A child that ends otherwise raises
    :class:`~oofa.errors.OofaError`.  If ``mine`` raises, the child is killed;
    it is reaped in every case.  Where the fork fails, ``theirs`` runs here.
    """
    cpus = _cpus()
    report_in, report_out = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: walk it all here
        os.close(report_in)
        os.close(report_out)
        mine()
        theirs()
        return
    if pid == 0:
        _child(theirs, report_out, cpus)
    os.close(report_out)
    ended = False
    try:
        mine()
        report = b""
        while part := os.read(report_in, 1 << 16):  # until the child has ended
            report += part
        _, status = os.waitpid(pid, 0)
        ended = True
    finally:
        os.close(report_in)
        if not ended:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status:
        raise _child_error(report, status)


def _cpus() -> tuple[set[int], int] | None:
    """The CPUs this process may run on and the one it runs on now (the
    ``processor`` field, field 39 of ``/proc/self/stat``), or None where
    either cannot be read."""
    try:
        allowed = os.sched_getaffinity(0)
        with open("/proc/self/stat", "rb") as stat:
            # field 2, the command name, may hold spaces: count from the ")" that ends it
            return allowed, int(stat.read().rpartition(b")")[2].split()[36])
    except (AttributeError, OSError, ValueError, IndexError):
        return None


def _move_off(allowed: set[int], here: int) -> None:
    """Move the forked child off the CPU ``here`` that its parent was running
    on, then hand it back the ``allowed`` mask it inherited, so the kernel
    may still balance it.  Left on the parent's CPU, as the kernel often
    leaves a fresh child, the two halves would take turns on one core.
    Where the affinity cannot be set, the child stays where it is."""
    try:
        os.sched_setaffinity(0, allowed - {here})
        os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):
        pass


def _child(work: Callable[[], None], report: int, cpus: tuple[set[int], int] | None
           ) -> NoReturn:
    """The forked child: move off its parent's CPU (``cpus``, from
    :func:`_cpus`), run ``work``, write what it raises, pickled, to the pipe
    ``report``, and end without flushing or tearing down anything it shares
    with its parent."""
    code = 1
    try:
        if cpus is not None:
            _move_off(*cpus)
        work()
        code = 0
    except BaseException as exc:  # the parent raises it; this process ends below
        import pickle

        try:
            os.write(report, pickle.dumps(exc))
        except Exception:  # unpicklable: the parent reports the exit status
            pass
    finally:
        os._exit(code)


def _child_error(report: bytes, status: int) -> BaseException:
    """The exception the forked child pickled in ``report``, or an
    :class:`~oofa.errors.OofaError` for its exit ``status``."""
    if report:
        import pickle

        try:
            return pickle.loads(report)  # written by the child this process forked
        except Exception:
            pass
    if os.WIFSIGNALED(status):
        how = f"signal {os.WTERMSIG(status)}"
    else:
        how = f"exit status {os.WEXITSTATUS(status)}"
    return OofaError(f"the forked half of the request ended with {how}")
