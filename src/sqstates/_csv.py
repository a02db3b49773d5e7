"""The one CSV writer behind every table the package writes, and the one
rule by which a command's files appear on disk.

Every float goes out as ``%.17g`` (17 significant digits, enough to read
the same double back), every file is LF-terminated with a header row.
Speed comes from doing less per cell, never from another format: values
are taken from ``ndarray.tolist()`` (Python floats, not numpy scalars),
each axis value is formatted once, and a whole mesh row is filled by a
single ``%`` against a template built for that row.

Meshes are evaluated, checked, formatted and written in blocks of
`BLOCK_ROWS` rows, so memory scales with the inner axis, not with the
mesh.  `mesh_blocks` is the one row-block evaluator and `block_lines`
the one place a block is checked to be finite and formatted; no other
module slices a mesh by `BLOCK_ROWS`.  A check that spans the whole
mesh therefore ends only after its last block has been written; what
keeps a failed run from leaving files behind is `staged`: every file of
a run is written into a staging directory and moved into the output
directory only when the whole run has succeeded.

A run's files are independent, and formatting holds the interpreter
lock, so `run_tasks` writes them side by side in forked worker
processes, one file per worker, as many at a time as the process may
use CPUs.  Errors surface exactly as a loop over the files would raise
them.  Only the command-line front end (`sqstates.cli`) stages a run and
spreads its files over workers; every library writer writes one file to
the path it is given.
"""

from __future__ import annotations

import contextlib
import errno
import os
import pickle
import shutil
import signal
import sys
import tempfile
import warnings

import numpy as np

#: The float format of every CSV cell.
FLOAT = "%.17g"

#: Mesh rows evaluated, checked, formatted and written together.
BLOCK_ROWS = 32


def fields(count: int) -> str:
    """A row template fragment: ``count`` comma-separated float fields."""
    return ",".join([FLOAT] * count)


def format_axis(values) -> list:
    """Each entry of a 1-d array as ``%.17g`` text, formatted once."""
    return [FLOAT % v for v in np.asarray(values, dtype=float).tolist()]


def mesh_blocks(evaluate, x, y):
    """``evaluate`` over the mesh ``x`` by ``y``, one row block at a time.

    Yields ``evaluate(x[i:i + BLOCK_ROWS, None], y[None, :])`` for each
    block in order: the rows come in as a column and ``y`` as a row, so
    every elementwise operation sees the same operands, and gives the
    same bits, as on the whole mesh.
    """
    for i in range(0, len(x), BLOCK_ROWS):
        yield evaluate(x[i:i + BLOCK_ROWS, None], y[None, :])


def block_lines(lead, inner, blocks, what: str):
    """The lines of a sampled mesh that arrives as row blocks.

    ``blocks`` yields 2-d real arrays whose rows, in order, are the mesh
    rows of ``lead``.  Mesh row ``i``, with values ``v``, becomes one
    line ``lead[i],inner[j],v[j]`` per inner index ``j``.  ``lead`` and
    ``inner`` are preformatted text, e.g. from `format_axis`.  Yields
    the text of one mesh row at a time.  Each block is checked when it
    arrives, before any of it is formatted: one of the wrong width or
    row count raises ``ValueError``, and one that is not finite raises
    ``FloatingPointError("non-finite <what> in mesh rows a to b")``.
    """
    parts = ["," + text + "," + FLOAT + "\n" for text in inner]
    done = 0
    for block in blocks:
        block = np.asarray(block)
        if (block.ndim != 2 or block.shape[1] != len(inner)
                or done + len(block) > len(lead)):
            raise ValueError("mesh block of shape %s does not fit %d x %d "
                             "axes at row %d"
                             % (block.shape, len(lead), len(inner), done))
        rows = len(block)
        if not np.isfinite(block).all():
            raise FloatingPointError("non-finite %s in mesh rows %d to %d"
                                     % (what, done, done + rows - 1))
        for head, row in zip(lead[done:done + rows], block.tolist()):
            yield (head + head.join(parts)) % tuple(row)
        done += rows
    if done != len(lead):
        raise ValueError("mesh blocks hold %d rows, axes %d"
                         % (done, len(lead)))


def write_csv(path, header: str, lines) -> None:
    """Write ``header`` and then each chunk of ``lines`` to ``path``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


@contextlib.contextmanager
def staged(out):
    """Stage a run's files; move them into ``out`` only if the run succeeds.

    Yields a fresh staging directory for the caller to write into.  On
    a normal exit ``out`` is created if it is missing and every staged
    file is moved into it with ``os.replace``, replacing a file of the
    same name; files already in ``out`` stay.  On any exception the
    staging directory and everything in it are removed, so a failed run
    leaves no file and no new directory behind.

    The staging directory is a hidden directory in the deepest existing
    directory on the path to ``out``: beside ``out`` when only ``out``
    is missing, inside it when it exists.  So it is always on the
    filesystem the files end up on, and needs write access only where
    they land.  An ``out`` that is, or lies under, an existing file
    raises ``NotADirectoryError`` naming ``out`` on entry.
    """
    out = os.fspath(out)
    base = os.path.abspath(out)
    while not os.path.lexists(base):
        base = os.path.dirname(base)
    if not os.path.isdir(base):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 out)
    stage = tempfile.mkdtemp(prefix=".sqstates-staging-", dir=base)
    try:
        yield stage
        os.makedirs(out, exist_ok=True)
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(out, name))
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    os.rmdir(stage)


def _width(count: int) -> int:
    """How many of ``count`` tasks `run_tasks` runs at a time."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(count, len(os.sched_getaffinity(0)))


def _work(task, fd: int):
    """The body of a forked worker: run ``task``, send its outcome, exit.

    The outcome ``(ok, value or exception, warnings)`` goes to the
    parent pickled through ``fd``.  Warnings pass the inherited filters
    and are recorded, not shown, for the parent to re-issue.  The
    worker never returns into the caller's stack: it leaves through
    ``os._exit``, with status 0 once its outcome is sent and 1 if even
    that failed, which the parent reads as a worker without a result.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = [True, task()]
            except BaseException as exc:
                outcome = [False, exc]
        outcome.append([(w.message, w.category, w.filename, w.lineno)
                        for w in caught])
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(outcome, fh)
        os._exit(0)
    finally:
        os._exit(1)


def _start(task):
    """Fork a worker that runs ``task``; returns its pid and result pipe."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _work(task, write)
    os.close(write)
    return pid, read


def _outcome(name: str, pid: int, fd: int):
    """Read a worker's outcome to the end of its pipe, then reap it."""
    try:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = ("killed by %s" % signal.Signals(-code).name if code < 0
               else "exit status %d" % code)
        raise ChildProcessError("the worker writing %s ended without a "
                                "result (%s)" % (name, how)) from None


def run_tasks(tasks: dict) -> list:
    """Run a run's per-file tasks, each in its own forked worker.

    ``tasks`` maps each file's name to a zero-argument callable that
    computes, checks, formats and writes that file (into a `staged`
    directory) and returns a small picklable value.  Returns the values
    in task order.  Up to one worker per CPU the process may run on
    runs at a time; with one CPU, or where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, the tasks run here, in order.

    The outcome is the one a loop over the tasks would give.  Workers
    are reaped in task order; the first failing task's exception is
    raised once every task before it has finished, after every other
    worker has been killed and reaped.  A worker that dies without a
    result (killed by a signal, say) raises ``ChildProcessError``
    naming its file.  Warnings a worker records are re-issued here, in
    task order.  Standard output and error are flushed before the
    first fork, so no buffered text is written twice.
    """
    names, calls = list(tasks), list(tasks.values())
    width = _width(len(calls))
    if width <= 1:
        return [call() for call in calls]
    sys.stdout.flush()
    sys.stderr.flush()
    running = {}
    values = []
    try:
        for i, name in enumerate(names):
            while len(running) < width and i + len(running) < len(calls):
                k = i + len(running)
                running[k] = _start(calls[k])
            ok, value, caught = _outcome(name, *running.pop(i))
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            if not ok:
                raise value
            values.append(value)
    finally:
        for pid, fd in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return values
