"""Squeezed states of the unit-frequency harmonic oscillator.

Exact parameter evolution, wavefunctions, phase-space (Wigner) pictures,
number-basis expansions, photon statistics, ladder-operator matrices, and
a two-dimensional focusing channel built from the same closed forms.

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

from .channel import (
    ChannelParameters,
    FocusMetrics,
    density,
    focus_metrics,
    psi_2d,
)
from .ermakov import (
    ComplexGroupParameters,
    ErmakovParameters,
    InvariantSet,
    classical_trajectory,
    evolve,
    evolve_complex,
    from_complex,
    invariants,
    to_complex,
)
from .fockexp import (
    ExpansionTable,
    PhotonStatistics,
    TruncationWarning,
    c_coeffs,
    expansion_table,
    m_matrix,
    pascal_even,
    pascal_odd,
    poisson_statistics,
    squeezed_vacuum_coeffs,
    t_matrix,
    time_dependent_expansion,
)
from .operators import (
    ModeState,
    OperatorMatrix,
    b_evolved,
    b_operators,
    energy_levels,
    field_expectation,
    fock_operators,
    hamiltonian_in_ladder,
    heisenberg_residual,
    invariant_E,
    ladder_action_check,
    var_h_operator,
)
from .phasespace import (
    PhaseSpaceGrid,
    PhaseSpacePoint,
    default_grid,
    moyal,
    rotate_evolution_check,
    superposition_grid,
    tcs_grid,
    wigner_numeric,
    wigner_superposition,
    wigner_tcs,
)
from .states import (
    CovarianceTriple,
    DynamicState,
    ScaleRangeError,
    TCSState,
    UncertaintyExtrema,
    covariance,
    energy,
    psi_n,
    psi_superposition,
    psi_tcs,
    uncertainty_extrema,
    var_h,
    variance_series,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParameters",
    "ComplexGroupParameters",
    "CovarianceTriple",
    "DynamicState",
    "ErmakovParameters",
    "FocusMetrics",
    "ExpansionTable",
    "InvariantSet",
    "ModeState",
    "OperatorMatrix",
    "PhaseSpaceGrid",
    "PhaseSpacePoint",
    "PhotonStatistics",
    "ScaleRangeError",
    "TCSState",
    "TruncationWarning",
    "UncertaintyExtrema",
    "b_evolved",
    "b_operators",
    "c_coeffs",
    "classical_trajectory",
    "covariance",
    "default_grid",
    "density",
    "energy",
    "energy_levels",
    "evolve",
    "evolve_complex",
    "expansion_table",
    "field_expectation",
    "fock_operators",
    "focus_metrics",
    "from_complex",
    "hamiltonian_in_ladder",
    "heisenberg_residual",
    "invariant_E",
    "invariants",
    "ladder_action_check",
    "m_matrix",
    "moyal",
    "pascal_even",
    "pascal_odd",
    "poisson_statistics",
    "psi_2d",
    "psi_n",
    "psi_superposition",
    "psi_tcs",
    "rotate_evolution_check",
    "squeezed_vacuum_coeffs",
    "superposition_grid",
    "t_matrix",
    "tcs_grid",
    "time_dependent_expansion",
    "to_complex",
    "uncertainty_extrema",
    "var_h",
    "var_h_operator",
    "variance_series",
    "wigner_numeric",
    "wigner_superposition",
    "wigner_tcs",
    "__version__",
]
