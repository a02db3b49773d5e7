"""Benchmark of the ``sqstates`` command line and library.

    python3 perfbench/run.py --workload {grids,fock-sweep,startup}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ``sqstates`` is imported from
``src/``.  The load is a closed loop with one client: operations run one
after another, each CLI operation in a fresh interpreter started by this
driver, which never has more than one child process alive.  A round is the
workload's fixed list of operations; the driver repeats whole rounds until
S seconds of rounds have run, then checks the first round's outputs with
``checks.py`` (which imports nothing from ``sqstates``) and requires every
later round to write the same bytes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
median round wall time, median process set-up time, median round CPU time
of the children and their largest peak RSS.  With ``--trace 1`` untraced
and traced rounds alternate; the traced ones run under ``-X importtime``
with every public ``sqstates`` function wrapped (``tracer.py``) and give
the per-layer metrics, and the tracing overhead is traced minus untraced
wall time.  Each run also writes ``.perfbench_runs/<run>/results.json``
with every round's figures and the sha256 and size of every output file.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RUNS = ROOT / ".perfbench_runs"

# A run stops starting rounds when another round of the longest length
# seen would end past this many seconds.
DEADLINE_S = 140.0

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

STATIONARY = {"alpha": 0.0, "beta": 1.0, "gamma": 0.0,
              "delta": 0.0, "epsilon": 0.0, "kappa": 0.0}
README_PACKET = {"alpha": 0.4, "beta": 1.3, "gamma": 0.0,
                 "delta": 0.2, "epsilon": -0.1, "kappa": 0.0}
README_SUPERPOSITION = {
    "kind": "superposition",
    "terms": [{"level": 0, "amplitude": [0.6324555320336759, 0.0]},
              {"level": 2, "amplitude": [0.0, 0.7745966692414834]}]}
DEPTHS = [0.0, 0.7853981633974483, 1.5707963267948966]


def _evolve(count):
    return {"params": README_PACKET,
            "times": {"start": 0.0, "stop": 6.2832, "count": count}}


# name -> list of (operation name, subcommand, config or None, extra args)
CLI_WORKLOADS = {
    "grids": [
        ("wigner", "wigner",
         {"params": STATIONARY, "state": README_SUPERPOSITION,
          "times": [0.0, 1.3], "points": 401, "rotation_check": True}, []),
        ("demkov", "demkov",
         {"channel": {"beta0": 0.1, "delta0": 0.0}, "times": DEPTHS,
          "points": 401}, []),
        ("evolve", "evolve", _evolve(20001), []),
    ],
    "startup": [
        ("evolve", "evolve", _evolve(65), []),
        ("statistics-poisson", "statistics",
         {"mode": "poisson", "delta0": 2.4899799195977463, "epsilon0": 0.0},
         []),
        ("statistics-pascal-even", "statistics",
         {"mode": "pascal-even", "sigma_sum": 40, "levels": 1000}, []),
        ("wigner-tcs", "wigner",
         {"params": README_PACKET, "state": {"kind": "tcs",
                                             "zeta": [0.8, -0.5]},
          "times": [0.0, 1.3], "points": 41}, []),
        ("expand", "expand",
         {"params": dict(README_PACKET, gamma=0.5, kappa=-0.25),
          "columns": [0, 1, 2], "truncation": 64}, []),
        ("verify", "verify", None, ["--seed", "7"]),
    ],
}

VERIFY_SEED = 7

# fock-sweep: (truncation, number of tables) per size; 8 columns each.
SWEEP_SIZES = ((512, 3), (128, 60))
SWEEP_COLUMNS = list(range(8))


def sweep_tasks(seed):
    """The seeded parameter sets of the library sweep (same seed, same sets)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    tasks = []
    for size, count in SWEEP_SIZES:
        for _ in range(count):
            params = {
                "alpha": rng.uniform(-0.7, 0.7),
                "beta": rng.uniform(0.6, 1.6),
                "gamma": rng.uniform(-math.pi, math.pi),
                "delta": rng.uniform(-1.0, 1.0),
                "epsilon": rng.uniform(-1.0, 1.0),
                "kappa": rng.uniform(-math.pi, math.pi),
            }
            tasks.append({"params": {k: float(v) for k, v in params.items()},
                          "columns": SWEEP_COLUMNS, "size": size})
    return tasks


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

LAYERS = ("cli", "ermakov", "states", "phasespace", "channel", "fockexp",
          "operators", "specfun")
IMPORTS = ("sqstates", "scipy", "jsonschema", "numpy")

# Inclusive span times reported per layer, as "<layer>.<function>_s".
TIMED = ("cli.main", "cli.run_verification",
         "ermakov.evolve", "ermakov.classical_trajectory",
         "states.covariance",
         "phasespace.superposition_grid", "phasespace.tcs_grid",
         "phasespace.rotate_evolution_check", "phasespace.write_grid_csv",
         "channel.density_grid", "channel.write_snapshot_series",
         "fockexp.expansion_table", "fockexp.t_matrix", "fockexp.m_matrix",
         "fockexp.write_statistics_csv",
         "operators.energy_levels", "operators.b_operators",
         "operators.heisenberg_residual",
         "specfun.hermite_function_table")
COUNTED = ("ermakov.evolve", "states.covariance", "fockexp.expansion_table",
           "fockexp.t_matrix", "specfun.hermite_function_table")

PER_LAYER = (
    [("import.%s_s" % pkg, "s") for pkg in IMPORTS]
    + [(name + "_s", "s") for name in TIMED]
    + [(name + "_calls", "count") for name in COUNTED]
    + [("%s.self_s" % layer, "s") for layer in LAYERS]
    + [("channel.format_s", "s"), ("phasespace.grid_points", "count"),
       ("channel.snapshot_points", "count"), ("out.bytes", "B"),
       ("out.files", "count"), ("trace.spans", "count"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")])


def import_times(text):
    """Cumulative import seconds per package from ``-X importtime`` lines.

    Lines come in post-order with two spaces of indent per nesting level; a
    package's time is the sum over its outermost entries.
    """
    pending = []  # (depth, name, cumulative_us, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|", 2)
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name, int(cumulative), children))
    totals = dict.fromkeys(IMPORTS, 0.0)

    def visit(node, inside):
        _, name, cumulative, children = node
        top = name.split(".")[0]
        if top in totals and top not in inside:
            totals[top] += cumulative * 1e-6
            inside = inside | {top}
        for child in children:
            visit(child, inside)

    for node in pending:
        visit(node, frozenset())
    return totals


def span_metrics(spans, into):
    """Add one process's span figures to the per-layer totals `into`."""
    spans = [s for s in spans if s is not None]
    child_time = [0.0] * len(spans)
    ancestors = [frozenset()] * len(spans)
    cache = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        seconds = (end - start) * 1e-9
        if parent >= 0:
            child_time[parent] += seconds
            key = (ancestors[parent], spans[parent][0])
            if key not in cache:
                cache[key] = key[0] | {key[1]}
            ancestors[i] = cache[key]
        into[name + "_calls"] += 1
        if name not in ancestors[i]:  # outermost call of a recursion only
            into[name + "_s"] += seconds
        if (name == "channel.density_grid"
                and "channel.write_snapshot_series" in ancestors[i]):
            into["channel.density_grid_in_writer_s"] += seconds
        if name == "phasespace.write_grid_csv":
            into["phasespace.grid_points"] += size
        elif name == "channel.density_grid":
            into["channel.snapshot_points"] += size
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        into[layer + ".self_s"] += (end - start) * 1e-9 - child_time[i]
    into["trace.spans"] += len(spans)


def median(values):
    return statistics.median(values) if values else float("nan")


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Byte-compiled modules are cached, as after any install.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args, log_dir, tag, traced, env):
    """Run one child to its end; return its timings and resource use."""
    log_dir.mkdir(parents=True, exist_ok=True)
    spans_path = log_dir / (tag + ".spans.json")
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime", str(CHILD), "--trace", str(spans_path)]
    else:
        cmd += [str(CHILD)]
    cmd += args
    err_path = log_dir / (tag + ".stderr")
    with open(log_dir / (tag + ".stdout"), "wb") as out, \
            open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    imports, _, after = stderr.partition("perfbench-ready ")
    _, _, peak = stderr.rpartition("perfbench-peak-rss-kb ")
    peak = peak.split()[0] if peak else ""
    result = {
        "returncode": proc.returncode,
        "start": start,
        "end": end,
        "setup_s": (float(after.split()[0]) - start) if after else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": int(peak) / 1024.0 if peak.isdigit() else None,
        "stderr_tail": stderr[-2000:] if proc.returncode else "",
    }
    if traced and after and spans_path.exists():
        result["imports"] = import_times(imports)
        with open(spans_path) as fh:
            result["spans"] = json.load(fh)["spans"]
    return result


# Outputs that carry run times by design; they are compared without them.
TIMED_FIELDS = {"verify_report.json": "runtime_seconds"}


def file_digests(directory):
    """{relative path: [sha256, size]} of every file under `directory`.

    A file named in TIMED_FIELDS is hashed with that field removed from
    every JSON object, so the digest covers everything but its timings.
    """
    out = {}
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        data = path.read_bytes()
        hashed = data
        if path.name in TIMED_FIELDS:
            field = TIMED_FIELDS[path.name]
            hashed = json.dumps(json.loads(data, object_hook=lambda obj: {
                k: v for k, v in obj.items() if k != field}),
                sort_keys=True).encode()
        out[str(path.relative_to(directory))] = [
            hashlib.sha256(hashed).hexdigest(), len(data)]
    return out


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

class Run:
    """Figures of one benchmark run, filled round by round."""

    def __init__(self, run_dir):
        self.dir = run_dir
        self.env = child_env()
        self.rounds = []
        self.attempted = 0
        self.failed = 0
        self.errors = []       # outputs that differ between rounds
        self.op_errors = []    # operations that failed
        self.reference = None  # output sha256s of the first round
        self.digests = {}      # {output: [sha256, size]} of the first round
        self.measured = {}     # output check -> largest error measured

    def record_outputs(self, digests, index):
        hashes = {k: v and v[0] for k, v in digests.items()}
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            changed = sorted(k for k in set(hashes) | set(self.reference)
                             if hashes.get(k) != self.reference.get(k))
            self.errors.append("round %d wrote different bytes than round 0: "
                               "%s" % (index, ", ".join(changed[:5])))


def cli_round(run, ops, configs, index, traced):
    round_dir = run.dir / ("round%d" % index)
    procs, outputs = [], {}
    for name, command, _, extra in ops:
        out = round_dir / "out" / name
        args = ["cli", command, "--out", str(out)] + extra
        if name in configs:
            args += ["--config", str(configs[name])]
        proc = spawn(args, round_dir / "logs", name, traced, run.env)
        proc["name"] = name
        procs.append(proc)
        run.attempted += 1
        if proc["returncode"] != 0:
            run.failed += 1
            run.op_errors.append("round %d %s exited %d: %s" % (
                index, name, proc["returncode"], proc["stderr_tail"]))
        outputs[name] = out
    digests = {"%s/%s" % (name, rel): value
               for name, out in outputs.items()
               for rel, value in file_digests(out).items()}
    run.record_outputs(digests, index)
    wall = procs[-1]["end"] - procs[0]["start"]
    return round_dir, procs, wall, digests, [v[1] for v in digests.values()]


def sweep_round(run, params_path, n_tasks, index, traced):
    round_dir = run.dir / ("round%d" % index)
    round_dir.mkdir(parents=True)
    result_path = round_dir / "sweep.json"
    args = ["sweep", str(params_path), str(result_path)]
    if index == 0:
        args.append(str(run.dir / "tables.npz"))
    proc = spawn(args, round_dir / "logs", "sweep", traced, run.env)
    proc["name"] = "sweep"
    run.attempted += n_tasks
    if proc["returncode"] != 0 or not result_path.exists():
        run.failed += n_tasks
        run.op_errors.append("round %d sweep exited %d: %s" % (
            index, proc["returncode"], proc["stderr_tail"]))
        return round_dir, [proc], float("nan"), {}, []
    with open(result_path) as fh:
        result = json.load(fh)
    run.failed += sum(d is None for d in result["digests"])
    run.op_errors.extend("round %d sweep: %s" % (index, e)
                      for e in result["errors"])
    digests = {"table%d" % i: d for i, d in enumerate(result["digests"])}
    run.record_outputs(digests, index)
    return round_dir, [proc], result["sweep_s"], digests, []


def run_checks(run, workload, procs, tasks):
    """Check the first round's outputs; record the largest error per check."""
    import checks

    if workload == "fock-sweep":
        results = [checks.check_sweep(run.dir / "tables.npz", tasks)]
    else:
        results = []
        codes = {p["name"]: p["returncode"] for p in procs}
        for name, command, config, _ in CLI_WORKLOADS[workload]:
            out = run.dir / "round0" / "out" / name
            if command == "verify":
                results.append(checks.check_verify(out, codes[name],
                                                   VERIFY_SEED))
            elif codes[name] == 0:
                results.append(getattr(checks, "check_" + command)(out,
                                                                   config))
    for result in results:
        run.measured.update(result.measured)
    return [message for result in results for message in result]


def benchmark(workload, seed, seconds, trace):
    run_dir = RUNS / ("%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(run_dir)

    # Warm-up, outside every figure: byte-compile the package and load the
    # interpreter's and libraries' files into the page cache.
    warm = subprocess.run([sys.executable, "-c", "import sqstates.cli"],
                          env=run.env, cwd=ROOT, capture_output=True,
                          text=True)
    if warm.returncode != 0:
        raise SystemExit("perfbench: cannot import sqstates from %s:\n%s"
                         % (SRC, warm.stderr[-2000:]))

    configs, tasks, params_path = {}, None, None
    if workload == "fock-sweep":
        tasks = sweep_tasks(seed)
        params_path = run_dir / "params.json"
        params_path.write_text(json.dumps(tasks))
    else:
        (run_dir / "configs").mkdir()
        for name, _, config, _ in CLI_WORKLOADS[workload]:
            if config is not None:
                configs[name] = run_dir / "configs" / (name + ".json")
                configs[name].write_text(json.dumps(config, indent=1))

    failures = []
    spent = longest = 0.0
    started = time.monotonic()
    index = 0
    while True:
        traced = bool(trace) and index % 2 == 1
        t0 = time.monotonic()
        if workload == "fock-sweep":
            round_dir, procs, wall, digests, written = sweep_round(
                run, params_path, len(tasks), index, traced)
        else:
            round_dir, procs, wall, digests, written = cli_round(
                run, CLI_WORKLOADS[workload], configs, index, traced)
        figures = {
            "traced": traced,
            "wall_s": wall,
            "setup_s": [p["setup_s"] for p in procs],
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "peak_rss_mb": max((p["peak_rss_mb"] for p in procs
                                if p["peak_rss_mb"] is not None),
                               default=float("nan")),
            "out_bytes": sum(written),
            "out_files": len(written),
            "operation_wall_s": {p["name"]: p["end"] - p["start"]
                                 for p in procs},
        }
        if traced:
            layers = defaultdict(float)
            for p in procs:
                for pkg, value in p.get("imports", {}).items():
                    layers["import.%s_s" % pkg] += value
                span_metrics(p.get("spans", []), layers)
            figures["layers"] = dict(layers)
        run.rounds.append(figures)
        elapsed = time.monotonic() - t0
        spent += elapsed
        longest = max(longest, elapsed)
        if index == 0:  # checks are outside the measured time
            run.digests = digests
            failures = run_checks(run, workload, procs, tasks)
        shutil.rmtree(round_dir)
        index += 1
        if trace and index < 2:
            continue
        if (spent >= seconds
                or time.monotonic() - started + longest > DEADLINE_S):
            break
    return run, failures


def end_to_end(rounds):
    plain = [r for r in rounds if not r["traced"]]
    return {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median([s for r in plain for s in r["setup_s"]
                           if s is not None]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
    }


def per_layer(rounds):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    values = {}
    for name, _ in PER_LAYER:
        if name == "out.bytes":
            values[name] = median([r["out_bytes"] for r in traced])
        elif name == "out.files":
            values[name] = median([r["out_files"] for r in traced])
        elif name == "trace.wall_s":
            values[name] = median([r["wall_s"] for r in traced])
        elif name == "trace.overhead_s":
            values[name] = (median([r["wall_s"] for r in traced])
                            - median([r["wall_s"] for r in plain]))
        elif name == "channel.format_s":
            values[name] = median([
                r["layers"].get("channel.write_snapshot_series_s", 0.0)
                - r["layers"].get("channel.density_grid_in_writer_s", 0.0)
                for r in traced])
        else:
            values[name] = median([r["layers"].get(name, 0) for r in traced])
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CLI_WORKLOADS) + ["fock-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqstates" / "cli.py").is_file():
        print("perfbench: no sqstates sources under %s" % SRC,
              file=sys.stderr)
        return 2

    run, failures = benchmark(args.workload, args.seed, args.seconds,
                              args.trace)
    failures = list(failures) + run.errors[:20]
    if args.trace:
        values = per_layer(run.rounds)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(run.rounds)
        units = dict(END_TO_END)
    correct = not failures and all(math.isfinite(v) for v in values.values())
    metrics = {name: {"value": value if math.isfinite(value) else None,
                      "unit": units[name]}
               for name, value in values.items()}

    with open(run.dir / "results.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "nproc": os.cpu_count(), "correct": correct,
                   "attempted": run.attempted, "failed": run.failed,
                   "failures": failures, "failed_operations": run.op_errors,
                   "metrics": metrics,
                   "check_errors": run.measured,
                   "output_files": run.digests, "rounds": run.rounds},
                  fh, indent=1)
    for message in failures:
        print("FAIL %s" % message)
    for message in run.op_errors[:20]:
        print("operation failed: %s" % message)
    print("%s: %d rounds, %d operations, %d failed; outputs %s" % (
        args.workload, len(run.rounds), run.attempted, run.failed,
        "checked" if not failures else "REJECTED"))
    for name, value in values.items():
        print("  %-40s %.6g %s" % (name, value, units[name]))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
