"""One basis-label rule: every entry point rejects what `_check_degree` does.

A label is an integer (a ``bool`` is not one) in [0, MAX_DEGREE].  A
float such as 2.7 is an error, not level 2, and ``True`` is not level 1.
"""

import pytest

from sqstates.ermakov import ErmakovParameters
from sqstates.fockexp import expansion_table
from sqstates.phasespace import PhaseSpacePoint, _check_coeffs, moyal
from sqstates.specfun import MAX_DEGREE

P0 = ErmakovParameters(alpha=0.3, beta=1.2, gamma=0.1, delta=0.4,
                       epsilon=-0.2, kappa=0.0)

ENTRY_POINTS = {
    "superposition": lambda n: _check_coeffs([(1.0, n)]),
    "expansion_table": lambda n: expansion_table(P0, (n,), size=32),
    "moyal": lambda n: moyal(n, 1, P0, PhaseSpacePoint(0.2, -0.1), 0.5),
}


@pytest.mark.parametrize("label", [2.7, True, -1, MAX_DEGREE + 1])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_basis_label_is_rejected(entry, label):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](label)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_integer_label_is_accepted(entry):
    ENTRY_POINTS[entry](2)
