"""Seeded inputs of the three benchmark workloads and their output checks.

Every parameter is drawn from a ``random.Random`` seeded with the workload name
and the seed, so one seed always gives the same cells and calls.  The references below are independent of fracfront:
they use mpmath and closed forms only, and they run after the timed phase.
See README.md for why each workload and each range was chosen.
"""

import math
import random

import mpmath

WORKLOADS = ("invade-subordination", "invade-fourier", "cold-eval")


def _cell(alpha, rho, dim, kind, m, beta, n_samples, method="subordination",
          t_start=5.0):
    return {"alpha": alpha, "rho": rho, "dim": dim, "kind": kind, "m": m,
            "beta": beta, "n_samples": n_samples, "method": method,
            "t_start": t_start, "t_end": 60.0}


def _pair(rng, lo, hi):
    """An antithetic pair: x and its mirror image in [lo, hi].

    A cell's cost moves steeply with its parameters (2.2 s against 3.9 s for
    the envelope cell at alpha 0.6 and 0.8), so one draw per cell makes a
    round's time depend on the seed.  The cost of a mirrored pair of cells is
    nearly the same for every seed, while each cell still samples its range.
    """
    x = rng.uniform(lo, hi)
    return x, lo + hi - x


def invade_subordination(rng):
    # Sample counts even out the cells' costs (about 1-2.5 s each here), so
    # the median cell latency sits among several similar cells.
    cells = [
        # Closed-form Wright factor: the quadrature's own bookkeeping dominates.
        _cell(0.5, 1.0, 1, "power", rng.uniform(0.8, 1.2), rng.uniform(0.4, 0.6), 24),
    ]
    a2, a3 = _pair(rng, 0.3, 0.5), _pair(rng, 0.5, 0.8)
    a4, r4 = _pair(rng, 0.6, 0.8), _pair(rng, 0.21, 0.49)
    a5, m5, b5 = _pair(rng, 0.55, 0.65), _pair(rng, 0.9, 1.1), _pair(rng, 0.24, 0.26)
    m, beta = _pair(rng, 0.8, 1.2), _pair(rng, 0.4, 0.6)
    for i in (0, 1):
        cells += [
            # _log_wright series -> Talbot heavy.
            _cell(a2[i], 1.0, 1, "power", m[i], beta[i], 5),
            _cell(a3[i], 0.5, 1, "exponential", m[i], beta[i], 4),
            # Envelope route, four integrals per sample.
            _cell(a4[i], r4[i], 2, "power", m[i], beta[i], 4, "envelope"),
            # rho > 1 on the subordination route: kernels._f_transform heavy.
            # Its cost falls steeply with t (5.8 s from t = 5, 1.4 s from
            # t = 20) and grows with theta, so it starts late and beta sits in
            # a narrow band below the 1/(2 rho) divergence threshold.
            _cell(a5[i], 1.5, 1, "power", m5[i], b5[i], 4, t_start=25.0),
        ]
    return cells


def invade_fourier(rng):
    # alpha stratified over [0.3, 0.75), one draw per stratum shared by a
    # rho = 2 and a rho = 1.5 cell, so each round builds three bridge rules.
    # The rho = 2 cell goes first and pays its stratum's build; the rho = 1.5
    # cell takes 8 samples to its 6, which evens out the cell latencies, so
    # the median cell is not where two groups of latencies meet.
    # Above alpha ~0.75 a negative-axis Taylor attempt runs ~|z|^(1/alpha)
    # terms before its cancellation test fails, and a cell's cost jumps
    # between 1.1 s and 4.0 s with small changes of theta: one such cell
    # would decide a round's time.  beta < 1/(2 rho) keeps clear of the
    # rho = 1, beta >= 0.4 cells that take 12-37 s each.
    cells = []
    for i in range(3):
        alpha = 0.3 + 0.15 * (i + rng.random())
        for rho in (2.0, 1.5):
            beta = rng.uniform(0.7, 0.8) / (2.0 * rho)
            cells.append(_cell(alpha, rho, 1, "power", rng.uniform(0.8, 1.2), beta,
                               6 if rho == 2.0 else 8, "fourier1d"))
    return cells


def cold_eval(rng):
    calls = []
    # Bridge regime at a new alpha per call, stratified over [0.2, 0.8].  At
    # alpha >= ~0.75 the Taylor series still wins near z = -5, so z stays
    # below -10 to keep every call on the per-alpha bridge build.
    for i in range(6):
        alpha = 0.2 + 0.6 * (i + rng.random()) / 6
        beta = rng.choice([1.0, alpha])
        calls.append(["eval", "ml", "--alpha", repr(alpha), "--beta", repr(beta),
                      "--z", repr(rng.uniform(-20.0, -10.0))])
    # The steep end of the build cost (1.7 s at 0.85 against 7.3 s at 0.9).
    alpha = rng.uniform(0.85, 0.86)
    calls.append(["eval", "ml", "--alpha", repr(alpha), "--beta", "1.0",
                  "--z", repr(rng.uniform(-20.0, -10.0))])
    # Taylor regime.  |z| < 1 also keeps the pole z^(1/alpha) of the Laplace
    # transform inside the Talbot oracle's contour (at alpha 0.2, z = 2.5 the
    # oracle misses it and disagrees with the series).
    for _ in range(2):
        alpha = rng.uniform(0.2, 0.9)
        calls.append(["eval", "ml", "--alpha", repr(alpha),
                      "--beta", repr(rng.choice([1.0, alpha])),
                      "--z", repr(rng.uniform(-1.0, 1.0))])
    # Wright argument placed by its saddle variable Y in [0.2, 2], where the
    # public wright_neg answers from its series (see README.md).
    nu, mu, y = rng.uniform(0.2, 0.7), rng.uniform(0.1, 1.0), rng.uniform(0.2, 2.0)
    x = (y / (1.0 - nu)) ** (1.0 - nu) / nu ** nu
    calls.append(["eval", "wright", "--nu", repr(nu), "--mu", repr(mu), "--z", repr(-x)])
    for _ in range(2):
        calls.append(["thresholds", "--alpha", repr(rng.uniform(0.2, 0.9)),
                      "--rho", repr(rng.choice([0.5, 1.0, 1.5])),
                      "--dim", str(rng.choice([1, 2, 3]))])
    rng.shuffle(calls)
    return calls


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return {"invade-subordination": invade_subordination,
            "invade-fourier": invade_fourier,
            "cold-eval": cold_eval}[workload](rng)


# ---------------------------------------------------------------------------
# references


def ml_talbot(alpha, beta, z, dps=30):
    """E_{a,b}(z) by Talbot inversion of s^(a-b)/(s^a - z) at t = 1."""
    with mpmath.workdps(dps):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        return mpmath.invertlaplace(lambda s: s ** (a - b) / (s ** a - zz), 1,
                                    method="talbot")


def ml_series(alpha, beta, z, max_digits=200):
    """E_{a,b}(z) by its Taylor series, or None where cancellation would need
    more than ``max_digits`` extra digits (the largest term is ~e^{|z|^(1/a)})."""
    lost = abs(z) ** (1.0 / alpha) / math.log(10.0)
    if lost > max_digits:
        return None
    dps = 30 + int(lost)
    with mpmath.workdps(dps):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        floor = mpmath.mpf(10) ** (-dps)
        total, k, small = mpmath.mpf(0), 0, 0
        while small < 3:
            term = zz ** k * mpmath.rgamma(a * k + b)
            total += term
            k += 1
            small = small + 1 if k > abs(z) ** (1.0 / alpha) and abs(term) < floor else 0
        return total


def wright_series(nu, mu, z, dps=40):
    """W_{-nu,mu}(z) = sum z^n / (n! Gamma(mu - nu n)) at ``dps`` digits."""
    with mpmath.workdps(dps):
        n_, m_, zz = mpmath.mpf(nu), mpmath.mpf(mu), mpmath.mpf(z)
        floor = mpmath.mpf(10) ** (-dps)
        total, coeff, n, small = mpmath.mpf(0), mpmath.mpf(1), 0, 0
        while small < 3:
            term = coeff * mpmath.rgamma(m_ - n_ * n)
            total += term
            n += 1
            coeff *= zz / n
            small = small + 1 if n > 2 * abs(z) + 5 and abs(term) < floor else 0
        return total


def thresholds_reference(alpha, rho, dim):
    """The analytic threshold constants, from their closed forms."""
    g = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    m_a = math.floor((2.0 / g) ** ((1.0 - alpha) / alpha)) + 1
    return {
        "gamma_alpha": g,
        "m_alpha": m_a,
        "power_lower": 2.0 * math.sqrt(1.0 - g),
        "power_upper": 2.0 * m_a * math.sqrt(1.0 - g / m_a),
        "exp_lower": (1.0 - g) / (dim + 2.0 * rho),
        "exp_upper": 1.0 / (dim + 2.0 * rho),
    }


# The CLI prints 10 significant digits.
PRINT_RTOL = 1e-8
# Subordination against fourier1d on the same sample, in log u.
CROSS_ROUTE_TOL = 1e-3
# The Talbot oracle against the series, where both apply.
ORACLE_RTOL = 1e-15


def _parse(stdout):
    fields = {}
    for token in stdout.split():
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref) + 1e-300


def check_call(argv, stdout):
    """Problems with one CLI call's output (an empty list when it is right).

    For ``eval ml`` this includes a disagreement of the Talbot oracle with the
    series, wherever the series is affordable.
    """
    opts = dict(zip(argv[2::2], argv[3::2])) if argv[0] == "eval" else \
        dict(zip(argv[1::2], argv[2::2]))
    fields = _parse(stdout)
    problems = []
    if argv[0] == "thresholds":
        ref = thresholds_reference(float(opts["--alpha"]), float(opts["--rho"]),
                                   int(opts["--dim"]))
        for key, want in ref.items():
            got = float(fields.get(key, "nan"))
            if not _close(got, want, PRINT_RTOL):
                problems.append(f"{key}={got} expected {want}")
        return problems
    if argv[1] == "wright":
        ref = wright_series(float(opts["--nu"]), float(opts["--mu"]), float(opts["--z"]))
    else:
        alpha, beta, z = (float(opts[k]) for k in ("--alpha", "--beta", "--z"))
        ref = ml_talbot(alpha, beta, z)
        series = ml_series(alpha, beta, z)
        if series is not None and not _close(ref, series, ORACLE_RTOL):
            problems.append(f"oracle: talbot {ref} against series {series}")
    value = float(fields.get("value", "nan"))
    if not _close(value, float(ref), PRINT_RTOL):
        problems.append(f"value={value} expected {float(ref)!r}")
    return problems


def cell_problems(cell, result):
    """Per-sample failure flags and cell-level problems of one experiment."""
    if "error" in result:
        return [True] * cell["n_samples"], [result["error"]]
    bad = [
        failure is not None or lv is None or lv[0] == 0 or not math.isfinite(lv[1])
        for _, _, lv, failure in result["samples"]
    ]
    problems = [f"sample t={s[0]:.4g} failed: {s[3]}" for s, b in
                zip(result["samples"], bad) if b]
    if result["predicted"] in ("diverging", "vanishing") and result["agreement"] is not True:
        problems.append(
            f"verdict {result['verdict']} against predicted {result['predicted']}")
        bad = [True] * len(bad)
    return bad, problems


def cross_points(workload, seed, cells, results):
    """A seeded subsample of d = 1, rho >= 1 samples to recompute by the other
    route; one per cell kind that has a cheap counterpart."""
    rng = random.Random(f"cross:{workload}:{seed}")
    points = []
    for c, (cell, result) in enumerate(zip(cells, results)):
        if cell["dim"] != 1 or cell["rho"] < 1.0 or "error" in result:
            continue
        if workload == "invade-subordination" and cell["rho"] == 1.0:
            # Fourier at rho = 1 costs seconds per sample: the
            # subordination cells at rho = 1.5 carry this check.
            continue
        s = rng.randrange(len(result["samples"]))
        t, x, lv, _ = result["samples"][s]
        route = "subordination" if cell["method"] == "fourier1d" else "fourier1d"
        points.append({"alpha": cell["alpha"], "rho": cell["rho"], "t": t, "x": x,
                       "route": route, "log_u": lv, "cell": c, "sample": s})
    if workload == "invade-fourier":
        points = rng.sample(points, 1)
    return points
