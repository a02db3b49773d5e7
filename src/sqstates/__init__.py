"""Squeezed states of the unit-frequency harmonic oscillator.

Exact parameter evolution, wavefunctions, phase-space (Wigner) pictures,
number-basis expansions, photon statistics, ladder-operator matrices, and
a two-dimensional focusing channel built from the same closed forms.
The package re-exports the ``__all__`` of `channel`, `ermakov`,
`fockexp`, `operators`, `phasespace` and `states`, in that order.

Importing the package loads numpy with a one-thread OpenBLAS pool unless
numpy is already loaded or one of OpenBLAS's own thread-count variables
(``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS``) is
set: the largest matrix product here is 512 x 512, and an idle OpenBLAS
worker busy-waits on a CPU after each call.  Set ``OPENBLAS_NUM_THREADS``
before the import to choose another pool size.
"""

import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when numpy loads it, so the pin
# is removed again at once and reaches neither os.environ nor children.
if "numpy" not in _sys.modules and not any(
        name in _os.environ for name in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from . import channel, ermakov, fockexp, operators, phasespace, states
from .channel import *  # noqa: F401,F403
from .ermakov import *  # noqa: F401,F403
from .fockexp import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .phasespace import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *channel.__all__, *ermakov.__all__, *fockexp.__all__,
    *operators.__all__, *phasespace.__all__, *states.__all__,
    "__version__",
]
