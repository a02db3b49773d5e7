"""One benchmark process: a CLI invocation or a library sweep.

    python3 child.py [--trace SPANS.json] cli <sqstates arguments...>
    python3 child.py [--trace SPANS.json] sweep PARAMS.json RESULT.json [TABLES.npz]

The process imports ``sqstates`` first and then writes
``perfbench-ready <CLOCK_MONOTONIC seconds>`` to stderr, which is how the
driver measures set-up time from outside.  ``cli`` then calls
``sqstates.cli.main`` exactly as the ``sqstates`` console script does and
exits with its return code.  ``sweep`` calls ``fockexp.expansion_table`` on
every parameter set in PARAMS.json, times the sweep alone, and writes the
sweep time and the sha256 and size of every table's bytes to RESULT.json
(and the tables themselves to TABLES.npz when given, for the output
checks).

At exit the process writes ``perfbench-peak-rss-kb <VmHWM>`` to stderr.
The driver does not use ``wait4``'s ``ru_maxrss``: exec carries the
parent's high-water mark into the child's, so every child smaller than the
driver would read as large as the driver.

With ``--trace`` every public ``sqstates`` function is wrapped before the
work starts and the spans are written to SPANS.json at the end.
"""

import sys
import time


def _run_sweep(params_path, result_path, tables_path=None):
    import hashlib
    import json

    import numpy as np
    from sqstates.ermakov import ErmakovParameters
    from sqstates.fockexp import expansion_table

    with open(params_path) as fh:
        tasks = json.load(fh)
    jobs = [(ErmakovParameters(**t["params"]), tuple(t["columns"]), t["size"])
            for t in tasks]
    tables, errors = [], []
    start = time.perf_counter()
    for p0, columns, size in jobs:
        try:
            tables.append(expansion_table(p0, columns, size=size))
        except Exception as exc:  # one failed operation; the sweep goes on
            tables.append(None)
            errors.append("%s: %s" % (type(exc).__name__, exc))
    sweep_s = time.perf_counter() - start

    digests = []
    for table in tables:
        if table is None:
            digests.append(None)
            continue
        data = (np.ascontiguousarray(table.coeffs).tobytes()
                + np.ascontiguousarray(table.tail_mass).tobytes())
        digests.append([hashlib.sha256(data).hexdigest(), len(data)])
    if tables_path:
        arrays = {}
        for i, table in enumerate(tables):
            if table is not None:
                arrays["coeffs_%d" % i] = table.coeffs
                arrays["tail_%d" % i] = table.tail_mass
                arrays["beta0_%d" % i] = np.array(table.beta0)
        np.savez(tables_path, **arrays)
    with open(result_path, "w") as fh:
        json.dump({"sweep_s": sweep_s, "digests": digests, "errors": errors},
                  fh)
    return 0


def _peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return line.split()[1]
    return "unknown"


def main(argv):
    spans_path = None
    if argv[0] == "--trace":
        spans_path, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    if mode == "cli":
        import sqstates.cli
    else:
        import sqstates.fockexp  # noqa: F401
    print("perfbench-ready %.9f" % time.monotonic(), file=sys.stderr,
          flush=True)

    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if mode == "cli":
            return sqstates.cli.main(args)
        return _run_sweep(*args)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
        print("perfbench-peak-rss-kb %s" % _peak_rss_kb(), file=sys.stderr,
              flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
