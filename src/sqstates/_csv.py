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
mesh.  A check that spans the whole mesh therefore ends only after its
last block has been written; what keeps a failed run from leaving files
behind is `staged`: every file of a run is written into a staging
directory and moved into the output directory only when the whole run
has succeeded.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile

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


def row_starts(count: int) -> range:
    """The first row of each `BLOCK_ROWS` block of a ``count``-row mesh."""
    return range(0, count, BLOCK_ROWS)


def block_lines(lead, inner, blocks):
    """The lines of a sampled mesh that arrives as row blocks.

    ``blocks`` yields 2-d arrays whose rows, in order, are the mesh rows
    of ``lead``.  Mesh row ``i`` becomes one line
    ``lead[i],inner[j],<cells>`` per inner index ``j``, where the cells
    are ``values[i, j]`` (one field for a real mesh, real and imaginary
    part for a complex one).  ``lead`` and ``inner`` are preformatted
    text, e.g. from `format_axis`.  Yields the text of one mesh row at
    a time; a block of the wrong width or row count raises
    ``ValueError`` when it arrives.
    """
    done = 0
    parts = None
    for block in blocks:
        block = np.asarray(block)
        if (block.ndim != 2 or block.shape[1] != len(inner)
                or done + len(block) > len(lead)):
            raise ValueError("mesh block of shape %s does not fit %d x %d "
                             "axes at row %d"
                             % (block.shape, len(lead), len(inner), done))
        if np.iscomplexobj(block):
            cells = np.stack((block.real, block.imag), axis=-1)
        else:
            cells = block[..., None]
        rows = len(block)
        if parts is None:
            tail = "," + fields(cells.shape[-1]) + "\n"
            parts = ["," + text + tail for text in inner]
        for head, row in zip(lead[done:done + rows],
                             cells.reshape(rows, -1).tolist()):
            yield (head + head.join(parts)) % tuple(row)
        done += rows
    if done != len(lead):
        raise ValueError("mesh blocks hold %d rows, axes %d"
                         % (done, len(lead)))


def mesh_lines(lead, inner, values):
    """The lines of a sampled mesh held whole, as `block_lines` gives them.

    The shape is checked here, before any line is produced, so a
    mismatch cannot leave a half-written file.
    """
    values = np.asarray(values)
    if values.shape[:2] != (len(lead), len(inner)):
        raise ValueError("mesh values of shape %s do not match %d x %d axes"
                         % (values.shape, len(lead), len(inner)))
    return block_lines(lead, inner, (values[i:i + BLOCK_ROWS]
                                     for i in row_starts(len(lead))))


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
    they land.  An ``out`` that is an existing file fails on entry, when
    the staging directory is made inside it.
    """
    out = os.fspath(out)
    base = os.path.abspath(out)
    while not os.path.lexists(base):
        base = os.path.dirname(base)
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
