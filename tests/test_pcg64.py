"""`_pcg64.PCG64` draws the stream of ``numpy.random.default_rng``.

``numpy.random`` is the oracle: every draw is compared as exact bits,
floats by ``float.hex`` and integers as ints.
"""

import random

import numpy as np
import pytest

import sqstates.cli as cli
import sqstates.verify as verify
from sqstates._pcg64 import PCG64

SEEDS = list(range(1000)) + [2**32 - 1, 2**32, 2**64 + 3, 10**30]
# two-value ranges, verify's ranges, and spans whose Lemire threshold
# (2^32 - span) mod span rejects up to a quarter of the draws
SPANS = [2, 7, 8, 10, 19, 2**16 + 1, 2**31 + 5, 3 * 2**30, 2**32 - 1]


def draws(rng, plan):
    """The draws of ``plan``, a list of (kind, low, high), as exact bits."""
    out = []
    for kind, low, high in plan:
        if kind == "uniform":
            out.append(float(rng.uniform(low, high)).hex())
        else:
            out.append(int(rng.integers(low, high)))
    return out


def mixed_plan(seed, count=60):
    """A random interleaving of `uniform` and `integers` draws."""
    pick = random.Random(seed)
    plan = []
    for _ in range(count):
        if pick.random() < 0.5:
            low = pick.uniform(-4.0, 4.0)
            plan.append(("uniform", low, low + pick.uniform(0.0, 8.0)))
        else:
            low = pick.randint(-10, 10)
            plan.append(("integers", low, low + pick.choice(SPANS)))
    return plan


@pytest.mark.parametrize("chunk", range(0, len(SEEDS), 100))
def test_mixed_draws_match_numpy(chunk):
    for seed in SEEDS[chunk:chunk + 100]:
        plan = mixed_plan(seed)
        assert draws(PCG64(seed), plan) == draws(
            np.random.default_rng(seed), plan), seed


def test_buffered_half_carries_across_uniform_draws():
    # the second integers draw takes the upper half of the 64-bit output
    # that the first one split, after a uniform draw in between
    plan = [("integers", 0, 8), ("uniform", -1.0, 1.0), ("integers", 0, 8),
            ("uniform", 0.0, 1.0), ("uniform", 0.0, 1.0), ("integers", 1, 9)]
    for seed in SEEDS[:200]:
        assert draws(PCG64(seed), plan) == draws(
            np.random.default_rng(seed), plan), seed


def test_rejection_loop_runs_and_matches(monkeypatch):
    calls = []
    real = PCG64._next_uint32
    monkeypatch.setattr(PCG64, "_next_uint32",
                        lambda self: calls.append(1) or real(self))
    plan = [("integers", 0, 3 * 2**30)] * 400
    for seed in (0, 2**32, 10**30):
        calls.clear()
        assert draws(PCG64(seed), plan) == draws(
            np.random.default_rng(seed), plan)
        assert len(calls) > len(plan)   # some draws were rejected


def test_out_of_range_arguments_raise():
    with pytest.raises(ValueError):
        PCG64(-1)
    rng = PCG64(0)
    for low, high in ((0, 0), (0, 1), (3, 2), (0, 2**32 + 1)):
        with pytest.raises(ValueError):
            rng.integers(low, high)


@pytest.mark.parametrize("seed", [7, 779, cli.DEFAULT_SEED])
def test_report_matches_the_numpy_stream(monkeypatch, seed):
    def without_runtimes(report):
        for entry in report["checks"]:
            del entry["runtime_seconds"]
        return report

    own = without_runtimes(verify.run_verification(seed))
    monkeypatch.setattr(verify, "PCG64", np.random.default_rng)
    assert own == without_runtimes(verify.run_verification(seed))
