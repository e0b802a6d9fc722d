"""Run one workload's requests in a fresh process and report timings.

Reads a job from stdin as JSON: {"workload", "requests", "seconds",
"trace"}.  Writes one JSON object to stdout.

The whole request list is sent in passes ("rounds"), one request at a
time, until `seconds` have passed and at least MIN_ROUNDS rounds are
done.  Each request's latency is the 90th percentile of its samples: on
a shared host, phases of a few seconds change the speed of all code by
up to 1.7 times, slow phases come in nearly every run and fast ones do
not, and of the statistics tried this one repeats best from run to run
(NOTES.md, "Noise").  With trace on, one more pass runs every request
under cProfile, started and stopped around each call here, and the
profile is aggregated by module file of the package.

Every answer, in every round, is checked; the checks run between the
timestamps of two requests and are not timed.
"""

import contextlib
import cProfile
import fractions
import importlib
import inspect
import io
import json
import os
import resource
import sys
import time
import traceback
from array import array
from fractions import Fraction

import riccati_galois
from riccati_galois import cli
from riccati_galois.odeforms import (
    RiccatiGeneral,
    transform_B,
    transform_R,
    transform_S,
    transform_T,
)
from riccati_galois.poly import Poly
from riccati_galois.ratfunc import RatFunc
from riccati_galois.specialfn import ExponentDiffs, kimura_test

MIN_ROUNDS = 3

# the solve-corpus families of workloads.COMPOSITION; not imported from
# there, so the worker loads no more than the requests need and
# peak_rss_mb stays the package's
SOLVE_FAMILIES = (
    "case1",
    "case1-surd",
    "hypergeometric",
    "whittaker",
    "bessel",
)

LAYERS = (
    "scalars",
    "poly",
    "ratfunc",
    "bivar",
    "linalg",
    "odeforms",
    "kovacic",
    "darboux",
    "formal",
    "specialfn",
    "applications",
    "exprparse",
    "reports",
    "cli",
    "fractions",
)

# named entry points, as module and qualified name inside the package
ENTRIES = (
    ("poly", "gcd"),
    ("poly", "Poly.divmod"),
    ("poly", "Poly.__mul__"),
    ("ratfunc", "RatFunc.__init__"),
    ("kovacic", "case1"),
    ("kovacic", "case2"),
    ("kovacic", "case3"),
    ("linalg", "solve"),
    ("poly", "roots_with_multiplicity"),
    ("ratfunc", "RatFunc.poles"),
    ("ratfunc", "RatFunc.laurent_at"),
    ("scalars", "Scalar.sqrt"),
    ("kovacic", "verify_case1"),
    ("kovacic", "verify_algebraic_riccati"),
    ("exprparse", "parse_ratfunc"),
    ("exprparse", "print_canonical"),
    ("reports", "to_json"),
    ("cli", "build_parser"),
    ("odeforms", "transform_T"),
    ("odeforms", "transform_B"),
    ("odeforms", "transform_S"),
    ("odeforms", "transform_R"),
    ("specialfn", "kimura_test"),
)


# -- requests: each takes the generated input, returns the raw output -----


def solve_call(request):
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve", "--rho=" + request["rho"], "--json", "--no-timing"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def solve_check(request, output):
    code, text = output
    if code != 0:
        return False
    verdict = json.loads(text)["verdict"]
    expect = request["expect"]
    if "case" in expect:
        return verdict["case"] == expect["case"]
    return verdict["liouvillian"] == expect["liouvillian"]


def normalize_call(request):
    e = RiccatiGeneral(
        *(RatFunc(Poly(num), Poly(den)) for num, den in request["coeffs"])
    )
    direct = transform_T(e)[0]
    via_linear = transform_R(transform_S(transform_B(e))[0])
    return direct.r, via_linear.r


def normalize_check(request, output):
    direct, via_linear = output
    return (direct == via_linear) == request["expect"]["routes_agree"]


def criteria_call(request):
    mu, nu = Fraction(request["mu"]), Fraction(request["nu"])
    return kimura_test(ExponentDiffs(mu, mu, 2 * nu + 1)).is_integrable


def criteria_check(request, output):
    return output == request["expect"]["integrable"]


REQUESTS = {
    "solve-corpus": (solve_call, solve_check),
    "riccati-normalize": (normalize_call, normalize_check),
    "criteria-sweep": (criteria_call, criteria_check),
}


# -- running ---------------------------------------------------------------


class Tally:
    """Attempts, failures and the first failure's description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def record(self, request, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = "request %d (%s): %s" % (
                    request["id"],
                    request["family"],
                    why,
                )


def send(request, call, check, tally, profile=None):
    """One request; returns (start_ns, end_ns, output_ok)."""
    output, error = None, None
    start = time.perf_counter_ns()
    try:
        if profile is not None:
            profile.enable()
        try:
            output = call(request)
        finally:
            if profile is not None:
                profile.disable()
    except Exception:
        error = traceback.format_exc(limit=3)
    end = time.perf_counter_ns()
    if error is None:
        try:
            ok = check(request, output)
            why = "wrong answer: %r" % (output,)
        except Exception:
            ok, why = False, traceback.format_exc(limit=3)
    else:
        ok, why = False, error
    tally.record(request, ok, why)
    return start, end, ok


def run_rounds(requests, call, check, seconds, tally):
    """Rounds over the request list until `seconds` have passed, the
    last one cut short, but at least MIN_ROUNDS whole ones.  Returns
    (samples, per-request latency in ns, spans); a request's latency is
    the 90th percentile of its samples.  Samples are kept in flat
    arrays, so the bookkeeping adds little to peak_rss_mb however many
    rounds fit."""
    starts, ends, oks = array("q"), array("q"), bytearray()
    n = len(requests)
    origin = time.perf_counter_ns()
    deadline = origin + int(seconds * 1e9)
    k = 0
    while k < MIN_ROUNDS * n or time.perf_counter_ns() < deadline:
        start, end, ok = send(requests[k % n], call, check, tally)
        starts.append(start - origin)
        ends.append(end - origin)
        oks.append(ok)
        k += 1
    latencies = [
        percentile([ends[j] - starts[j] for j in range(i, k, n)], 0.9)
        for i in range(n)
    ]
    return k, latencies, (starts, ends, oks)


def span_records(requests, spans):
    """[id, family, round, start_ns, end_ns, ok] per sample."""
    starts, ends, oks = spans
    n = len(requests)
    return [
        [requests[k % n]["id"], requests[k % n]["family"], k // n,
         starts[k], ends[k], bool(oks[k])]
        for k in range(len(starts))
    ]


def percentile(values, share):
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- profile aggregation ---------------------------------------------------


def _layer_files():
    package = os.path.dirname(os.path.realpath(riccati_galois.__file__))
    files = {os.path.join(package, name + ".py"): name for name in LAYERS}
    files[os.path.realpath(fractions.__file__)] = "fractions"
    return files


def _entry_key(module, qualname):
    """cProfile's key of a public function, or None if it is gone."""
    try:
        obj = importlib.import_module("riccati_galois." + module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = inspect.unwrap(obj).__code__
    except (ImportError, AttributeError):
        return None
    filename = os.path.realpath(code.co_filename)
    return (filename, code.co_firstlineno, code.co_name)


def aggregate(profile):
    """Self time and calls per layer, cumulative time and calls per
    named entry point."""
    profile.create_stats()
    files = _layer_files()
    layers = {name: [0.0, 0] for name in LAYERS}
    by_key = {}
    for (filename, line, name), (_, calls, self_s, cum_s, _) in (
        profile.stats.items()
    ):
        # built-ins are named "~"
        if filename.startswith(os.sep):
            filename = os.path.realpath(filename)
        by_key[(filename, line, name)] = (calls, cum_s)
        layer = files.get(filename)
        if layer is not None:
            layers[layer][0] += self_s
            layers[layer][1] += calls
    metrics = {}
    for name, (self_s, calls) in layers.items():
        metrics[name + ".self_s"] = (self_s, "s")
        metrics[name + ".calls"] = (calls, "count")
    for module, qualname in ENTRIES:
        key = _entry_key(module, qualname)
        calls, cum_s = by_key.get(key, (0, 0.0))
        metrics["%s.%s.cum_s" % (module, qualname)] = (cum_s, "s")
        metrics["%s.%s.calls" % (module, qualname)] = (calls, "count")
    return metrics


def trace_pass(requests, call, check, tally):
    profile = cProfile.Profile()
    busy = 0
    for request in requests:
        start, end, _ = send(request, call, check, tally, profile)
        busy += end - start
    return profile, busy


def per_layer(requests, latencies, profile, traced_busy):
    """Profile aggregates plus ratios, each over the request count."""
    layer = aggregate(profile)
    n = len(requests)
    for entry in ("linalg.solve", "poly.gcd"):
        layer[entry + ".calls_per_request"] = (
            layer[entry + ".calls"][0] / n,
            "1/request",
        )
    # every answer was checked equal to its expected one
    integrable = [
        r["expect"]["integrable"]
        for r in requests
        if "integrable" in r["expect"]
    ]
    layer["specialfn.integrable_share"] = (
        sum(integrable) / len(integrable) if integrable else 0.0,
        "share",
    )
    layer["trace_overhead"] = (traced_busy / sum(latencies), "ratio")
    for family in SOLVE_FAMILIES:
        own = [
            m for m, r in zip(latencies, requests) if r["family"] == family
        ]
        layer["family.%s.p50_ms" % family] = (
            percentile(own, 0.5) / 1e6 if own else 0.0,
            "ms",
        )
    return layer


def main():
    job = json.load(sys.stdin)
    requests = job["requests"]
    call, check = REQUESTS[job["workload"]]
    tally = Tally()
    samples, latencies, spans = run_rounds(
        requests, call, check, job["seconds"], tally
    )
    result = {
        "samples": samples,
        "latency_ns": latencies,
        # one client, so completed per second of busy time is the
        # inverse of the mean request time
        "throughput_per_s": len(requests) / (sum(latencies) / 1e9),
        "latency_p50_ms": percentile(latencies, 0.5) / 1e6,
        "latency_p90_ms": percentile(latencies, 0.9) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if job["trace"]:
        profile, traced_busy = trace_pass(requests, call, check, tally)
        result["per_layer"] = per_layer(
            requests, latencies, profile, traced_busy
        )
    result["spans"] = span_records(requests, spans)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["first_failure"] = tally.first_failure
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
