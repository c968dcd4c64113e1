#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload wire_ingest --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, runs the workload, and prints its metrics; the last
line of standard output is the JSON report. The report is checked against
BENCHMARK.json before it is printed. Build output goes to standard error.
--record FILE also appends {"workload", "seed", "trace", "report"} as one
JSON line to FILE, the input format of compare.py.

Exit codes: 0 ok, 1 build or run failure (no report printed), 3 an oracle
check failed (the report is printed with "correct": false).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets):
    """Configures and builds `targets`; False on failure."""
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.exists(src):
        print("perfbench: no chronicle sources at " + src, file=sys.stderr)
        return False
    out = os.path.join(BUILD, "perfbench")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j4", "--target"] + targets]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def binary(name):
    return os.path.join(BUILD, "perfbench", name)


def check_report(report, names_units):
    """Raises ValueError unless `report` has exactly the contract's shape and
    exactly the metrics in `names_units` (name -> unit)."""
    if not isinstance(report, dict) or set(report) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ValueError("report keys: %r" % sorted(report))
    if not isinstance(report["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(report[key], int) or isinstance(report[key], bool):
            raise ValueError(key + " is not an integer")
    if report["attempted"] < 1 or report["failed"] < 0:
        raise ValueError("attempted < 1 or failed < 0")
    metrics = report["metrics"]
    if set(metrics) != set(names_units):
        missing = sorted(set(names_units) - set(metrics))
        extra = sorted(set(metrics) - set(names_units))
        raise ValueError("metrics differ: missing %s extra %s" % (missing, extra))
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError("bad metric name " + name)
        if set(m) != {"value", "unit"} or m["unit"] != names_units[name]:
            raise ValueError("bad metric entry %s: %r" % (name, m))
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError("metric %s is not a number" % name)


def expected_metrics(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the report to this JSONL file")
    args = parser.parse_args(argv)

    spec = load_spec()
    if not build(["perfbench"]):
        return 1

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary("perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 3) or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        report = json.loads(lines[-1])
        check_report(report, expected_metrics(spec, args.trace))
    except ValueError as e:
        print("perfbench: malformed report: %s" % e, file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "report": report}) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 3 if not report["correct"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
