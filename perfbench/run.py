"""Benchmark of riccati-galois: three closed-loop workloads, one client.

    python3 perfbench/run.py --workload solve-corpus --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The seed makes the inputs (perfbench/workloads.py); a fresh worker
process (perfbench/worker.py) receives only those inputs and sends them
to the package's public functions.  The last line of standard output is
one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of a cProfile pass.  Per-request spans, the seed,
the digest of the inputs and the sample counts go to
perfbench/out/<workload>-seed<seed>-trace<trace>.json.

Exit codes: 0 every answer right, 1 a wrong answer or a failed request
(the result line is still printed), 2 the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("solve-corpus", "riccati-normalize", "criteria-sweep")

# fresh interpreters timed per run for setup_s, after one untimed import
# that writes the bytecode cache; half before the worker, half after, so
# the median spans two moments of the host
SETUP_SAMPLES = 12
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import riccati_galois.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# a run must end within 180 s; the worker gets what is left of it
RUN_LIMIT_S = 170


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # set iteration order fixed, so traced call counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def import_times(env, count):
    """Seconds to import the package, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout))
    return samples


def run_worker(job, env, deadline):
    worker = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        env=env,
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = worker.communicate(
            json.dumps(job), timeout=max(deadline - time.monotonic(), 1)
        )
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        fail("worker did not finish within %d s" % RUN_LIMIT_S)
    if worker.returncode != 0:
        fail("worker exited with code %d" % worker.returncode)
    return json.loads(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "riccati_galois", "cli.py")):
        fail("no package at %s: run from the root of a checkout" % SRC)
    sys.path[:0] = [SRC, HERE]
    import workloads

    env = child_env()
    setup_s, setup_samples = None, []
    if not args.trace:
        import_times(env, 1)
        setup_samples = import_times(env, SETUP_SAMPLES // 2)
    requests = workloads.build(args.workload, args.seed)
    digest = workloads.digest(requests)
    families = dict(Counter(request["family"] for request in requests))

    job = {
        "workload": args.workload,
        "requests": requests,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = run_worker(job, env, deadline)
    if not args.trace:
        setup_samples += import_times(env, SETUP_SAMPLES - len(setup_samples))
        setup_s = statistics.median(setup_samples)

    end_to_end = {name: result.get(name) for name, _ in END_TO_END_UNITS}
    end_to_end["setup_s"] = setup_s
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "requests": len(requests),
        "families": families,
        "samples": result["samples"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "first_failure": result["first_failure"],
        "setup_samples_s": setup_samples,
        "end_to_end": end_to_end,
        "per_layer": result.get("per_layer"),
        "request_latency_ns": result["latency_ns"],
        "spans": result["spans"],
    }
    os.makedirs(OUT, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh)

    print(
        "workload %s seed %d inputs sha256 %s: %d requests %s, %d samples"
        % (
            args.workload,
            args.seed,
            digest,
            len(requests),
            families,
            result["samples"],
        )
    )
    print(
        "error_rate %.6f (%d failed of %d attempted)"
        % (result["failed"] / result["attempted"], result["failed"],
           result["attempted"])
    )
    if result["first_failure"]:
        print("first failure: %s" % result["first_failure"], file=sys.stderr)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END_UNITS
        }
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
