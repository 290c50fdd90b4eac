"""Split a long walk of rows between this process and one forked child.

A request run by ``cli.run`` owns its whole process, so it may fork.  A
walk of the m! orders (:func:`walk`) or a table (:func:`write`) of at least
four blocks is cut at the block boundary nearest its middle: a forked child
does the second half while this process does the first, on the host's other
core.  Both halves run the per-block code of the serial path, over the same
blocks, so every output byte is the same.  The child hands its half back
through memory both processes share: the walk's output arrays live in
anonymous shared mappings made before the fork, and the table's second half
is text in a memfd file, which this process copies out after its own half.
Shorter walks and tables, and hosts without ``os.fork`` or
``os.memfd_create``, stay in one process.  Library calls never come here:
``predict_all``, ``average_predictions`` and ``write_table`` fork only when
the caller passes ``fork=True``, as the CLI does from ``cli.run`` alone.

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


def _child_start(n: int, block: int) -> int | None:
    """The first row of the child's half of ``n`` rows walked ``block`` rows at
    a time, or None to walk them all here: when either process would get
    fewer than two blocks, or the host lacks ``os.fork`` or
    ``os.memfd_create``."""
    blocks = -(-n // block)
    if blocks < 4 or not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        return None
    return blocks // 2 * block


def walk(fill: Callable, n: int, block: int, shapes: Sequence[tuple]) -> list[np.ndarray]:
    """One float array of shape ``(*shape, n)`` per shape in ``shapes``, filled
    by ``fill(arrays, start, stop)``, which fills rows start..stop of each
    from the ``block``-row blocks that begin there."""
    start = _child_start(n, block)
    if start is None:
        arrays = [np.empty((*shape, n)) for shape in shapes]
        fill(arrays, 0, n)
        return arrays
    arrays = [np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape) * n)).reshape(*shape, n)
              for shape in shapes]  # float64, in mappings the child shares
    _in_halves(lambda: fill(arrays, 0, start), lambda: fill(arrays, start, n))
    return arrays


def write(stream: IO[str], write_rows: Callable, n: int, block: int) -> None:
    """Write rows 0..n of a table to the text ``stream`` with
    ``write_rows(stream, start, stop)``, which writes the ``block``-row blocks
    that begin there."""
    start = _child_start(n, block)
    if start is None or not hasattr(stream, "buffer"):
        write_rows(stream, 0, n)
        return
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
        _child(theirs, report_out)
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


def _child(work: Callable[[], None], report: int) -> NoReturn:
    """The forked child: run ``work``, write what it raises, pickled, to the
    pipe ``report``, and end without flushing or tearing down anything it
    shares with its parent."""
    code = 1
    try:
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
