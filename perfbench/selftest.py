"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
- every workload answers every request right (error_rate 0) at the
  default seed and at a held-out seed, and reports exactly the
  end-to-end metrics of BENCHMARK.json, each a positive number;
- a traced run reports exactly the per-layer metrics of BENCHMARK.json,
  and two traced runs of the same code give identical call counts;
- each workload's check rejects a wrong answer, so no check is skipped;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001



def run(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.relpath(RUN, ROOT), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return done


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_answers(workload, end_to_end, problems):
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        done = run(workload, seed, 0)
        result = result_of(done)
        if done.returncode != 0 or not result or result["failed"]:
            problems.append(
                "%s seed %d: exit %d, %s"
                % (workload, seed, done.returncode, done.stderr.strip())
            )
            continue
        if sorted(result["metrics"]) != sorted(end_to_end):
            problems.append("%s seed %d: metrics %s"
                            % (workload, seed, sorted(result["metrics"])))
            continue
        for name in end_to_end:
            if not result["metrics"][name]["value"] > 0:
                problems.append("%s seed %d: %s not positive"
                                % (workload, seed, name))


def check_counts_repeat(workload, per_layer, problems):
    counts = []
    for _ in range(2):
        result = result_of(run(workload, DEFAULT_SEED, 1))
        if sorted(result["metrics"]) != sorted(per_layer):
            problems.append("%s: traced metrics differ from BENCHMARK.json"
                            % workload)
        counts.append({
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if name.endswith(".calls")
        })
    if counts[0] != counts[1]:
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append("%s: call counts differ: %s" % (workload, changed))


def check_wrong_answers_fail(workload_names, problems):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import worker
    import workloads

    for workload in workload_names:
        request = workloads.build(workload, DEFAULT_SEED)[0]
        call, check = worker.REQUESTS[workload]
        output = call(request)
        if not check(request, output):
            problems.append("%s: right answer rejected" % workload)
        for key, value in request["expect"].items():
            if isinstance(value, bool):
                request["expect"][key] = not value
            else:
                request["expect"][key] = value + 1
        if check(request, output):
            problems.append("%s: wrong answer accepted" % workload)


def check_bare_directory(problems):
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run("criteria-sweep", DEFAULT_SEED, 0, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r"
                        % (done.returncode, done.stdout))
    shutil.rmtree(bare)


def main():
    sys.path.insert(0, HERE)
    from run import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    per_layer = [m["name"] for m in benchmark["per_layer"]]

    problems = []
    for workload in WORKLOADS:
        check_answers(workload, end_to_end, problems)
        check_counts_repeat(workload, per_layer, problems)
    check_wrong_answers_fail(WORKLOADS, problems)
    check_bare_directory(problems)
    for problem in problems:
        print("FAIL %s" % problem)
    print("selftest: %s" % ("failed" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
