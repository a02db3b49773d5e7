"""Worst margin of every ``sqstates verify`` check over a range of seeds.

    python tests/verify_margins.py START STOP [--jobs N]

runs `sqstates.verify.run_verification` at every seed in range(START,
STOP) and prints, for each check in registry order, the largest
``max_error / tolerance`` and the first seed where it occurs (a NaN error
counts as an infinite ratio), then every seed that failed.  The exit
status is 0 if every seed passed all checks and 1 otherwise.

Pytest does not collect this file, because its name does not start with
``test_``; a pass over seeds 0 to 3299 takes minutes, not seconds.
``--jobs`` runs that many worker processes side by side.
"""

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sqstates import verify  # noqa: E402


def margins(seed):
    """(seed, all_passed, [(check name, max_error / tolerance), ...])."""
    report = verify.run_verification(seed)
    ratios = []
    for check in report["checks"]:
        ratio = check["max_error"] / check["tolerance"]
        ratios.append((check["name"], math.inf if math.isnan(ratio)
                       else ratio))
    return seed, report["all_passed"], ratios


def sweep(seeds, jobs=1):
    """Worst ratio and its seed per check, and the failed seeds, in order."""
    worst = {}
    failed = []
    with ProcessPoolExecutor(jobs) as pool:
        for seed, passed, ratios in pool.map(margins, seeds, chunksize=4):
            if not passed:
                failed.append(seed)
            for name, ratio in ratios:
                if name not in worst or ratio > worst[name][0]:
                    worst[name] = (ratio, seed)
    return worst, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("start", type=int)
    parser.add_argument("stop", type=int)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = range(args.start, args.stop)
    worst, failed = sweep(seeds, args.jobs)
    print("seeds %d to %d" % (args.start, args.stop - 1))
    print("%-26s %12s %6s" % ("check", "worst ratio", "seed"))
    for name, (ratio, seed) in worst.items():
        print("%-26s %12.3g %6d" % (name, ratio, seed))
    print("failed seeds: %s" % (" ".join(map(str, failed)) or "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
