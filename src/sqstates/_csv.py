"""The one CSV writer behind every table the package writes.

Every float goes out as ``%.17g`` (17 significant digits, enough to read
the same double back), every file is LF-terminated with a header row.
Speed comes from doing less per cell, never from another format: values
are taken from ``ndarray.tolist()`` (Python floats, not numpy scalars),
each axis value is formatted once, and a whole mesh row is filled by a
single ``%`` against a template built for that row.
"""

from __future__ import annotations

import numpy as np

#: The float format of every CSV cell.
FLOAT = "%.17g"


def fields(count: int) -> str:
    """A row template fragment: ``count`` comma-separated float fields."""
    return ",".join([FLOAT] * count)


def format_axis(values) -> list:
    """Each entry of a 1-d array as ``%.17g`` text, formatted once."""
    return [FLOAT % v for v in np.asarray(values, dtype=float).tolist()]


def mesh_lines(lead, inner, values):
    """The lines of a sampled mesh, as an iterator of blocks.

    Block ``i`` holds one line ``lead[i],inner[j],<cells>`` per inner
    index ``j``, in order, where the cells are ``values[i, j]`` (one
    field for a real mesh, real and imaginary part for a complex one).
    ``lead`` and ``inner`` are preformatted text, e.g. from `format_axis`.
    The shapes are checked here, before any block is produced, so a
    mismatch cannot leave a half-written file.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        cells = np.stack((values.real, values.imag), axis=-1)
    else:
        cells = values[..., None]
    if cells.shape[:2] != (len(lead), len(inner)):
        raise ValueError("mesh values of shape %s do not match %d x %d axes"
                         % (values.shape, len(lead), len(inner)))
    tail = "," + fields(cells.shape[-1]) + "\n"
    parts = ["," + text + tail for text in inner]
    rows = cells.reshape(len(lead), -1).tolist()
    return ((head + head.join(parts)) % tuple(row)
            for head, row in zip(lead, rows))


def write_csv(path, header: str, lines) -> None:
    """Write ``header`` and then each chunk of ``lines`` to ``path``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)
