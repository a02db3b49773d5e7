"""Output checks for the benchmark, written apart from the program.

Nothing here imports ``sqstates``.  Every expected value comes from the
physics an output claims: the closed forms of the paper (the oscillator
rotation of the covariance and the centroid, the breathing-channel Gaussian,
the Poisson and Pascal laws), Hermite functions built here, and quadrature
done here.  Each ``check_*`` function returns a list of failure messages;
an empty list means the output passed.

Tolerances are set from measured agreement on correct outputs (see the
README) with one to three orders of magnitude of margin, and are small
enough that scaling one value by 1 + 1e-6 fails them (see
``test_checks.py``).  No check compares a truncated norm with 1; it
compares it with 1 - tail.
"""

import json
import math
import os

import numpy as np

INV_PI = 1.0 / math.pi
#: Absolute precision granted to a table's tail_mass (1 minus a sum of
#: squares, so its error is a few ulps of 1 times the row count).
TAIL_ATOL = 1e-12


class Failures(list):
    """Failure messages of one output, with helpers that append to them."""

    def __init__(self, what):
        super().__init__()
        self.what = what
        self.measured = {}  # "output: check" -> largest error seen

    def fail(self, label, detail):
        self.append("%s: %s: %s" % (self.what, label, detail))

    def expect(self, ok, label, detail=""):
        if not ok:
            self.fail(label, detail)
        return ok

    def close(self, label, got, want, atol=0.0, rtol=0.0):
        """Require |got - want| <= atol + rtol |want| elementwise (NaN fails)."""
        got = np.asarray(got)
        want = np.asarray(want)
        if want.ndim and got.shape != want.shape:
            self.fail(label, "shape %s, expected %s" % (got.shape, want.shape))
            return False
        err = np.abs(got - want)
        excess = err - (atol + rtol * np.abs(want))
        worst = float(np.max(excess)) if excess.size else 0.0
        key = "%s: %s" % (self.what, label)
        self.measured[key] = max(self.measured.get(key, 0.0),
                                 float(np.max(err)) if err.size else 0.0)
        if not worst <= 0.0:
            self.fail(label, "max error %.3e over tolerance (atol %.0e, "
                      "rtol %.0e)" % (float(np.max(err)), atol, rtol))
            return False
        return True


def read_csv(path, header, fails):
    """Numeric rows of a comma-separated file whose first line is `header`."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if not fails.expect(first == header, "header",
                        "%r, expected %r" % (first, header)):
        return None
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ----------------------------------------------------------------------
# physics written out here
# ----------------------------------------------------------------------

def initial_moments(params):
    """(sigma_x, sigma_p, sigma_xp) and centroid (x, p) of the packet at t=0.

    The packet exp(-(beta x + epsilon)^2/2 + i(alpha x^2 + delta x + kappa))
    has position variance 1/(2 beta^2), local momentum 2 alpha x + delta,
    and so the centroid x = -epsilon/beta, p = 2 alpha x + delta.
    """
    a, b = params["alpha"], params["beta"]
    sx = 1.0 / (2.0 * b * b)
    sxp = 2.0 * a * sx
    sp = 4.0 * a * a * sx + 0.5 * b * b
    x0 = -params["epsilon"] / b
    return (sx, sp, sxp), (x0, 2.0 * a * x0 + params["delta"])


def rotated_moments(params, t):
    """Covariance R(t) S0 R(t)^T and centroid R(t) c0 of the unit oscillator.

    Hamilton's equations give x(t) = x cos t + p sin t and
    p(t) = -x sin t + p cos t.  Returns arrays (sx, sp, sxp, x, p).
    """
    (sx, sp, sxp), (x0, p0) = initial_moments(params)
    c, s = np.cos(t), np.sin(t)
    return (c * c * sx + 2.0 * c * s * sxp + s * s * sp,
            s * s * sx - 2.0 * c * s * sxp + c * c * sp,
            c * s * (sp - sx) + (c * c - s * s) * sxp,
            c * x0 + s * p0,
            -s * x0 + c * p0)


def hermite_functions(nmax, x):
    """Normalized Hermite functions 0..nmax at x, by the three-term recurrence."""
    out = np.empty((nmax + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, nmax):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * x * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def packet_overlaps(params, nmax):
    """<phi_m | psi_packet> for m = 0..nmax by trapezoid quadrature.

    psi_packet = sqrt(beta) pi^(-1/4) exp(-(beta x + epsilon)^2/2
    + i(alpha x^2 + delta x + kappa)), normalized.  The integrand is smooth
    and Gaussian-bounded, so the trapezoid rule converges geometrically once
    the step resolves its highest wavenumber.
    """
    a, b, d, e, k = (params[n] for n in
                     ("alpha", "beta", "delta", "epsilon", "kappa"))
    lo, hi = sorted(((-9.0 - e) / b, (9.0 - e) / b))  # envelope < 3e-18 beyond
    wavenumber = (math.sqrt(2.0 * nmax + 1.0) + 2.0 * abs(a) * max(-lo, hi)
                  + abs(d) + 6.0 * b)
    h = min(0.01, 0.5 / wavenumber)
    n = int(math.ceil((hi - lo) / h)) + 1
    x = np.linspace(lo, hi, n)
    psi = (math.sqrt(b) * math.pi ** -0.25
           * np.exp(-0.5 * (b * x + e) ** 2 + 1j * (a * x * x + d * x + k)))
    weights = np.full(n, x[1] - x[0])
    weights[[0, -1]] *= 0.5
    return hermite_functions(nmax, x) @ (weights * psi)


# ----------------------------------------------------------------------
# one check per output kind
# ----------------------------------------------------------------------

EVOLVE_HEADER = ("t,alpha,beta,gamma,delta,epsilon,kappa,"
                 "sigma_p,sigma_x,sigma_px,product,x_mean,p_mean")


def check_evolve(out_dir, config):
    fails = Failures("evolve.csv")
    data = read_csv(os.path.join(out_dir, "evolve.csv"), EVOLVE_HEADER, fails)
    if data is None:
        return fails
    block = config["times"]
    ts = np.linspace(block["start"], block["stop"], block["count"])
    if not fails.expect(data.shape == (ts.size, 13), "rows",
                        "shape %s, expected (%d, 13)" % (data.shape, ts.size)):
        return fails
    t = data[:, 0]
    sp, sx, sxp, product = data[:, 7], data[:, 8], data[:, 9], data[:, 10]
    fails.close("time column", t, ts, atol=1e-15 * (1.0 + np.max(np.abs(ts))))
    scale = np.maximum(1.0, sx * sp)
    fails.close("Schroedinger-Robertson equality sx sp - sxp^2 = 1/4",
                (sx * sp - sxp * sxp) / scale, 0.25 / scale, atol=1e-12)
    fails.close("product column", product, sp * sx, rtol=1e-15)
    want = rotated_moments(config["params"], t)
    size = 1.0 + float(np.max(want[0] + want[1]))
    fails.close("covariance R S0 R^T: sigma_x", sx, want[0], atol=1e-12 * size)
    fails.close("covariance R S0 R^T: sigma_p", sp, want[1], atol=1e-12 * size)
    fails.close("covariance R S0 R^T: sigma_xp", sxp, want[2],
                atol=1e-12 * size)
    reach = 1.0 + float(np.max(np.hypot(want[3], want[4])))
    fails.close("centroid on the classical orbit: x", data[:, 11], want[3],
                atol=1e-12 * reach)
    fails.close("centroid on the classical orbit: p", data[:, 12], want[4],
                atol=1e-12 * reach)
    return fails


def _square_mesh(data, points, fails, columns=(0, 1)):
    """Split x-major rows into the two axes; check the mesh is a product grid."""
    if not fails.expect(data.shape[0] == points * points, "rows",
                        "%d rows, expected %d" % (data.shape[0], points ** 2)):
        return None
    a = data[:, columns[0]].reshape(points, points)
    b = data[:, columns[1]].reshape(points, points)
    ok = fails.expect(np.array_equal(a, np.repeat(a[:, :1], points, axis=1))
                      and np.array_equal(b, np.repeat(b[:1], points, axis=0)),
                      "mesh", "rows are not an x-major product grid")
    for name, axis in (("first axis", a[:, 0]), ("second axis", b[0])):
        steps = np.diff(axis)
        ok = ok and fails.expect(
            bool(np.all(steps > 0)) and np.allclose(steps, steps[0],
                                                    rtol=1e-9, atol=0.0),
            "mesh", "%s is not increasing and uniform" % name)
    return (a[:, 0], b[0]) if ok else None


def _trapezoid_2d(values, x, p):
    return float(np.trapezoid(np.trapezoid(values, p, axis=1), x))


def check_wigner(out_dir, config):
    fails = Failures("wigner")
    state = config["state"]
    points = config.get("points", 201)
    times = config["times"]
    centres = []
    for i, t in enumerate(times):
        fails.what = "wigner_t%d.csv" % i
        data = read_csv(os.path.join(out_dir, "wigner_t%d.csv" % i), "x,p,W",
                        fails)
        if data is None:
            continue
        axes = _square_mesh(data, points, fails)
        if axes is None:
            continue
        x, p = axes
        w = data[:, 2].reshape(points, points)
        fails.expect(float(np.max(np.abs(w))) <= INV_PI * (1.0 + 1e-12),
                     "|W| <= 1/pi", "max |W| = %.17g" % np.max(np.abs(w)))
        if state["kind"] == "superposition":
            fails.close("integral of W", _trapezoid_2d(w, x, p), 1.0,
                        atol=1e-10)
            _check_superposition(fails, state, config["params"], t, x, p, w)
        else:
            # A coarse grid spanning five deviations holds 1 - 1e-6 of the mass.
            fails.close("integral of W", _trapezoid_2d(w, x, p), 1.0,
                        atol=1e-5)
            centre = (0.5 * (x[0] + x[-1]), 0.5 * (p[0] + p[-1]))
            centres.append((t, centre))
            _check_gaussian(fails, config["params"], t, centre, x, p, w)
    if state["kind"] == "tcs" and len(centres) > 1:
        # A displaced packet's centre rides the classical orbit.
        fails.what = "wigner"
        (t0, (x0, p0)) = centres[0]
        for t, (xc, pc) in centres[1:]:
            c, s = math.cos(t - t0), math.sin(t - t0)
            fails.close("packet centre on the classical orbit",
                        [xc, pc], [c * x0 + s * p0, -s * x0 + c * p0],
                        atol=1e-12 * (1.0 + math.hypot(x0, p0)))
    if config.get("rotation_check"):
        fails.what = "rotation_report.json"
        with open(os.path.join(out_dir, "rotation_report.json")) as fh:
            report = json.load(fh)
        per_time = report["max_error_per_time"]
        fails.expect(len(per_time) == len(times), "one error per time")
        fails.expect(report["max_error"] == max(per_time), "max_error",
                     "is not the largest per-time error")
        fails.expect(report["max_error"] <= 1e-9, "max_error <= 1e-9",
                     "max_error = %r" % report["max_error"])
    return fails


def _check_superposition(fails, state, params, t, x, p, w):
    stationary = all(params[k] == v for k, v in (
        ("alpha", 0.0), ("beta", 1.0), ("gamma", 0.0), ("delta", 0.0),
        ("epsilon", 0.0), ("kappa", 0.0)))
    if not fails.expect(stationary, "config",
                        "the marginal check needs the stationary basis"):
        return
    levels = [term["level"] for term in state["terms"]]
    amps = [complex(*term["amplitude"]) for term in state["terms"]]
    parities = {n % 2 for n in levels}
    i0 = np.flatnonzero(np.abs(x) <= 1e-12)
    j0 = np.flatnonzero(np.abs(p) <= 1e-12)
    if len(parities) == 1 and fails.expect(
            i0.size == 1 and j0.size == 1, "W(0, 0)", "origin not on mesh"):
        sign = 1.0 if parities == {0} else -1.0
        fails.close("W(0, 0) = (+-1)/pi for a state of one parity",
                    w[i0[0], j0[0]], sign * INV_PI, atol=1e-13)
    # psi(x, t) = sum c_n exp(-i(n + 1/2) t) phi_n(x), phi_n from numpy's
    # Hermite series.
    psi = np.zeros(x.size, dtype=complex)
    for n, c in zip(levels, amps):
        h = np.polynomial.hermite.hermval(x, [0.0] * n + [1.0])
        phi = h * np.exp(-0.5 * x * x) / math.sqrt(
            2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        psi += c * np.exp(-1j * (n + 0.5) * t) * phi
    fails.close("position marginal = |psi(x, t)|^2",
                np.trapezoid(w, p, axis=1), np.abs(psi) ** 2, atol=1e-11)


def _check_gaussian(fails, params, t, centre, x, p, w):
    """A displaced minimum-uncertainty packet has a Gaussian Wigner function,
    W = exp(-d^T S^-1 d / 2) / pi with S = R(t) S0 R(t)^T (det S = 1/4)."""
    sx, sp, sxp = (float(v) for v in rotated_moments(params, t)[:3])
    det = sx * sp - sxp * sxp
    dx = x[:, None] - centre[0]
    dp = p[None, :] - centre[1]
    quad = (sp * dx * dx - 2.0 * sxp * dx * dp + sx * dp * dp) / det
    fails.close("Gaussian Wigner function of the packet", w,
                np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det)),
                atol=1e-12)


def check_demkov(out_dir, config):
    fails = Failures("demkov")
    beta0 = config["channel"]["beta0"]
    delta0 = config["channel"].get("delta0", 0.0)
    times = config["times"]
    points = config.get("points", 201)
    for i, t in enumerate(times):
        fails.what = "snapshot_t%d.csv" % i
        data = read_csv(os.path.join(out_dir, "snapshot_t%d.csv" % i),
                        "depth,x,y,density", fails)
        if data is None:
            continue
        fails.expect(bool(np.all(data[:, 0] == t)), "depth column",
                     "is not %r throughout" % t)
        if _square_mesh(data, points, fails, columns=(1, 2)) is None:
            continue
        # Pointwise, never by the trapezoid sum: the focused frame is
        # under-resolved by the common grid.
        x, y = data[:, 1], data[:, 2]
        w = beta0 ** 2 * math.sin(t) ** 2 + math.cos(t) ** 2 / beta0 ** 2
        want = np.exp(-((x - delta0 * math.sin(t)) ** 2 + y * y) / w) / (
            math.pi * w)
        fails.close("density = exp(-((x - d0 sin t)^2 + y^2)/w)/(pi w)",
                    data[:, 3], want, atol=1e-300, rtol=1e-12)

    fails.what = "metrics.csv"
    data = read_csv(os.path.join(out_dir, "metrics.csv"),
                    "t,peak,rms_width,center_x,norm", fails)
    if data is None or not fails.expect(
            data.shape == (len(times), 5), "rows", "shape %s" % (data.shape,)):
        return fails
    ts = np.asarray(times, dtype=float)
    w = beta0 ** 2 * np.sin(ts) ** 2 + np.cos(ts) ** 2 / beta0 ** 2
    fails.close("t column", data[:, 0], ts)
    fails.close("norm column is 1", data[:, 4], 1.0, atol=1e-9)
    fails.close("peak = 1/(pi w)", data[:, 1], 1.0 / (math.pi * w), rtol=1e-12)
    fails.close("rms = sqrt(w/2)", data[:, 2], np.sqrt(0.5 * w), rtol=1e-12)
    fails.close("centre = delta0 sin t", data[:, 3], delta0 * np.sin(ts),
                atol=1e-12 * (1.0 + abs(delta0)))
    zero = np.flatnonzero(ts == 0.0)
    focus = np.flatnonzero(ts == 0.5 * math.pi)
    if zero.size and focus.size:
        i, j = zero[0], focus[0]
        fails.close("superfocusing peak(pi/2)/peak(0) = 1/beta0^4",
                    data[j, 1] / data[i, 1], beta0 ** -4, rtol=1e-12)
        fails.close("rms(0) rms(pi/2) = 1/2", data[i, 2] * data[j, 2], 0.5,
                    rtol=1e-12)
    return fails


def check_statistics(out_dir, config):
    fails = Failures("statistics.csv")
    mode = config["mode"]
    levels = config.get("levels", 64)
    data = read_csv(os.path.join(out_dir, "statistics.csv"), "m,probability",
                    fails)
    if data is None or not fails.expect(
            data.shape == (levels + 1, 2), "rows", "shape %s" % (data.shape,)):
        return fails
    m = np.arange(levels + 1)
    fails.expect(np.array_equal(data[:, 0], m), "level column", "not 0..%d"
                 % levels)
    probs = data[:, 1]
    if mode == "poisson":
        nbar = 0.5 * (config["delta0"] ** 2 + config["epsilon0"] ** 2)
        want = np.array([math.exp(-nbar + k * math.log(nbar)
                                  - math.lgamma(k + 1.0)) for k in m])
        mean = variance = nbar
    elif mode == "pascal-even":
        sigma = config["sigma_sum"]
        q = (sigma - 1.0) / (sigma + 1.0)
        want = np.zeros(levels + 1)
        for k in range(0, levels + 1, 2):
            j = k // 2
            want[k] = math.exp(0.5 * math.log(2.0) + math.lgamma(k + 1.0)
                               - 2.0 * math.lgamma(j + 1.0)
                               + j * math.log(q) - j * math.log(4.0)
                               - 0.5 * math.log(sigma + 1.0))
        fails.expect(bool(np.all(probs[1::2] == 0.0)), "odd rows are exactly 0")
        mean, variance = 0.5 * (sigma - 1.0), 0.5 * (sigma * sigma - 1.0)
    else:
        fails.fail("config", "no check for mode %r" % mode)
        return fails
    fails.close("probabilities = pmf from math.lgamma", probs, want,
                atol=1e-300, rtol=1e-11)

    fails.what = "statistics.json"
    with open(os.path.join(out_dir, "statistics.json")) as fh:
        summary = json.load(fh)
    fails.expect(summary["mode"] == mode, "mode")
    fails.close("mean", summary["mean"], mean, rtol=1e-15)
    fails.close("variance", summary["variance"], variance, rtol=1e-15)
    fails.close("tail_mass = 1 - sum of rows", summary["tail_mass"],
                1.0 - math.fsum(probs), atol=1e-12)
    return fails


def check_table(fails, coeffs, tail, beta0, params, columns):
    """Checks shared by `expand` output and the library sweep's tables."""
    fails.expect(beta0 == params["beta"], "beta0", "%r" % beta0)
    fails.expect(bool(np.all(tail >= -1e-12)), "tail_mass >= -1e-12",
                 "min %.3e" % float(np.min(tail)))
    # The full columns are orthonormal under the weight beta0, so the
    # truncated Gram matrix is diag(1 - tail) minus the tails' Gram matrix,
    # whose entries Cauchy-Schwarz bounds by sqrt(tail_j tail_k).  tail_mass
    # is 1 minus a sum, known to TAIL_ATOL only: a tail of 4e-15 can read
    # 3.9e-15, which moves the bound for a pair near equality.
    gram = beta0 * (coeffs.conj().T @ coeffs)
    fails.close("weighted Gram diagonal = 1 - tail_mass",
                np.diag(gram).real, 1.0 - tail, atol=TAIL_ATOL)
    pos = np.maximum(tail, 0.0) + TAIL_ATOL
    off = gram - np.diag(np.diag(gram))
    fails.close("Gram off-diagonal within sqrt(tail_j tail_k)",
                np.maximum(np.abs(off) - np.sqrt(np.outer(pos, pos)), 0.0),
                0.0, atol=1e-12)
    if 0 not in columns:
        return
    col = coeffs[:, list(columns).index(0)]
    overlaps = packet_overlaps(params, col.size - 1)
    fails.close("column 0: sqrt(beta0) c_m0 = e^(i gamma0) <phi_m|packet>",
                math.sqrt(beta0) * col,
                np.exp(1j * params["gamma"]) * overlaps, atol=1e-12)
    (sx, sp, _), (x0, p0) = initial_moments(params)
    nbar = 0.5 * (sx + sp + x0 * x0 + p0 * p0 - 1.0)
    probs = beta0 * np.abs(col) ** 2
    fails.close("column 0 mean photon number", probs @ np.arange(col.size),
                nbar, atol=1e-10 * (1.0 + nbar))


def check_expand(out_dir, config):
    fails = Failures("expansion.csv")
    columns = config["columns"]
    size = config.get("truncation", 128)
    data = read_csv(os.path.join(out_dir, "expansion.csv"),
                    "m,n,real,imag,probability", fails)
    if data is None or not fails.expect(
            data.shape == (size * len(columns), 5), "rows",
            "shape %s" % (data.shape,)):
        return fails
    fails.expect(np.array_equal(data[:, 0], np.tile(np.arange(size),
                                                    len(columns)))
                 and np.array_equal(data[:, 1], np.repeat(columns, size)),
                 "m, n columns", "rows are not column-major (n outer, m inner)")
    coeffs = (data[:, 2] + 1j * data[:, 3]).reshape(len(columns), size).T
    beta0 = config["params"]["beta"]
    fails.close("probability = beta0 |c|^2", data[:, 4],
                beta0 * (data[:, 2] ** 2 + data[:, 3] ** 2), rtol=1e-15)

    fails.what = "expansion.json"
    with open(os.path.join(out_dir, "expansion.json")) as fh:
        table = json.load(fh)
    fails.expect(table["columns"] == columns and table["truncation"] == size,
                 "columns, truncation")
    stored = np.array(table["coeffs"])
    fails.expect(stored.shape == (len(columns), size, 2)
                 and np.array_equal(stored[..., 0] + 1j * stored[..., 1],
                                    coeffs.T),
                 "coeffs", "differ from expansion.csv")
    fails.what = "expand"
    check_table(fails, coeffs, np.array(table["tail_mass"]), table["beta0"],
                config["params"], columns)
    return fails


def check_verify(out_dir, returncode, seed):
    fails = Failures("verify_report.json")
    fails.expect(returncode == 0, "exit code", "%r" % returncode)
    with open(os.path.join(out_dir, "verify_report.json")) as fh:
        report = json.load(fh)
    fails.expect(report["seed"] == seed, "seed", "%r" % report["seed"])
    fails.expect(report["all_passed"] is True, "all_passed")
    fails.expect(len(report["checks"]) > 0, "checks", "none reported")
    for entry in report["checks"]:
        fails.expect(entry["max_error"] <= entry["tolerance"],
                     entry["name"], "max_error %r > tolerance %r"
                     % (entry["max_error"], entry["tolerance"]))
    return fails


def check_sweep(tables_path, tasks):
    fails = Failures("fock-sweep")
    with np.load(tables_path) as tables:
        for i, task in enumerate(tasks):
            fails.what = "fock-sweep table %d" % i
            if "coeffs_%d" % i not in tables:
                continue  # a failed operation, counted by the driver
            coeffs = tables["coeffs_%d" % i]
            fails.expect(coeffs.shape == (task["size"], len(task["columns"])),
                         "shape", "%s" % (coeffs.shape,))
            check_table(fails, coeffs, tables["tail_%d" % i],
                        float(tables["beta0_%d" % i]), task["params"],
                        task["columns"])
    merged = {}
    for key, value in fails.measured.items():
        key = "fock-sweep: " + key.split(": ", 1)[1]
        merged[key] = max(merged.get(key, 0.0), value)
    fails.measured = merged
    return fails
