"""One integer-argument rule: `specfun._check_int` behind every entry point.

An integer argument is an ``int`` or a numpy integer, never a ``bool``
or a float, within the range its entry point states.  ``True`` is not 1
and 2.5 is not 2; each of them, and a value just past each bound,
raises ValueError naming the argument.  The references that moved
from the library to ``oracles`` keep the rule, and their rows stay.
"""

import os

import numpy as np
import pytest

from sqstates import cli
from sqstates.channel import ChannelParameters, write_snapshot_csv
from sqstates.ermakov import ErmakovParameters
from sqstates.fockexp import (
    expansion_table,
    m_matrix,
    pascal_even,
    pascal_odd,
    poisson_statistics,
    squeezed_vacuum_coeffs,
    t_matrix,
)
from sqstates.operators import fock_operators, interior
from sqstates.phasespace import PhaseSpacePoint, default_grid, wigner_numeric
from sqstates.specfun import (
    MAX_DEGREE,
    hermite_function_table,
    hermite_zeros,
    laguerre_assoc,
    laguerre_ratios,
)
from sqstates.states import DynamicState

from oracles import ladder_action_check, var_h_operator

P0 = ErmakovParameters(alpha=0.3, beta=1.2, gamma=0.1, delta=0.4,
                       epsilon=-0.2, kappa=0.0)
GROUND = ErmakovParameters(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

#: entry point -> (argument name, low, high or None, call with the value)
ENTRY_POINTS = {
    # the Hermite degree, of the library's one Hermite route
    "hermite": ("degree", 0, MAX_DEGREE,
                lambda v: hermite_function_table(v, 0.3)),
    "hermite_zeros": ("n", 1, MAX_DEGREE + 1, hermite_zeros),
    # the Laguerre order, of the library's one Laguerre route
    "laguerre_assoc": ("order", 0, MAX_DEGREE,
                       lambda v: laguerre_assoc(3, v, 0.5)),
    "laguerre_ratios": ("order", 0, MAX_DEGREE,
                        lambda v: list(laguerre_ratios(3, v, 0.5))),
    "t_matrix": ("size", 1, MAX_DEGREE, lambda v: t_matrix(0.2, 0.1, 0.0, v)),
    "m_matrix": ("size", 1, MAX_DEGREE, lambda v: m_matrix(0.3, 1.2, v)),
    "expansion_table": ("size", 1, MAX_DEGREE,
                        lambda v: expansion_table(P0, (0,), v)),
    "pascal_even": ("m_max", 0, 2 * (MAX_DEGREE - 1),
                    lambda v: pascal_even(2.0, v)),
    "pascal_odd": ("m_max", 1, 2 * MAX_DEGREE - 1,
                   lambda v: pascal_odd(2.0, v)),
    "squeezed_vacuum_coeffs": ("p_max", 0, MAX_DEGREE - 1,
                               lambda v: squeezed_vacuum_coeffs(0.3, 1.2, v)),
    "poisson_statistics": ("m_max", 0, MAX_DEGREE - 1,
                           lambda v: poisson_statistics(1.0, 1.0, v)),
    "DynamicState": ("n", 0, MAX_DEGREE, lambda v: DynamicState(v, P0)),
    "default_grid.points": ("points", 2, None,
                            lambda v: default_grid(P0, 0.0, (0,), v)),
    "default_grid.pair": ("points", 2, None,
                                lambda v: default_grid(P0, 0.0, (0,), (5, v))),
    "default_grid.levels": ("levels", 0, MAX_DEGREE,
                            lambda v: default_grid(P0, 0.0, (v,), 5)),
    "wigner_numeric": ("nodes", 1024, None, lambda v: wigner_numeric(
        lambda x: np.exp(-0.5 * x * x), PhaseSpacePoint(0.0, 0.0), nodes=v)),
    # the points of the density grid that a snapshot writes
    "density_grid": ("points", 2, None, lambda v: write_snapshot_csv(
        os.devnull, ChannelParameters(0.5, 0.3), 0.0, v)),
    "fock_operators": ("n_dim", 2, None, fock_operators),
    "interior": ("pad", 1, None, lambda v: interior(np.eye(4), v)),
    "var_h_operator": ("n", 0, None, lambda v: var_h_operator(v, GROUND, 64)),
    "ladder_action_check": ("levels", 1, 8,
                            lambda v: ladder_action_check(GROUND, 64, v)),
}


def bad_values(low, high):
    values = [("True", True), ("2.5", 2.5), ("below", low - 1)]
    if high is not None:
        values.append(("above", high + 1))
    return values


CASES = [pytest.param(entry, value, id="%s-%s" % (entry, tag))
         for entry, (_, low, high, _) in sorted(ENTRY_POINTS.items())
         for tag, value in bad_values(low, high)]


@pytest.mark.parametrize("entry, value", CASES)
def test_bad_integer_argument_is_named(entry, value):
    name, *_, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^%s must be an integer " % name):
        call(value)


@pytest.mark.filterwarnings("ignore::sqstates.fockexp.TruncationWarning")
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_integer_at_the_low_bound_is_accepted(entry):
    _, low, _, call = ENTRY_POINTS[entry]
    call(np.int64(low))


@pytest.mark.parametrize("mode, law", [
    ("poisson", lambda v: poisson_statistics(1.0, 1.0, v)),
    ("pascal-even", lambda v: pascal_even(2.0, v)),
    ("pascal-odd", lambda v: pascal_odd(2.0, v)),
])
def test_cli_levels_cap_is_the_law_cap(mode, law):
    # the schema admits exactly the levels its photon law accepts
    cap = cli._levels_schema(mode)["maximum"]
    law(cap)
    with pytest.raises(ValueError, match="^m_max must be an integer "):
        law(cap + 1)
