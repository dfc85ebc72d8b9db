#!/usr/bin/env python3
"""One benchmark run of bbs, from the root of a source checkout.

    python3 bbsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, the bbs_serve daemon and the bbsbench driver from
source (Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload
and prints, as the last line of standard output, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced replay with --trace 1. A
human-readable summary goes to standard error.

    python3 bbsbench/run.py --record-expected

records the reference outcomes of every request any seed can send into
bbsbench/expected/ (the expected results the correctness gate compares
against).
"""

import argparse
import gzip
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_solve", "sweep_explore")
# Traced run -> (workload of an extra traced pass, the layer metrics it
# supplies in place of the run's own); see pass_layers.
PASSES = {"sweep_explore": ("serve_admission", benchlib.service_layer),
          "cold_solve": ("restart_cached", benchlib.telemetry_layer)}
PASS_SECONDS = 10.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "cmake")


def ensure_built():
    """Configures and builds the driver and the daemon; returns their
    paths. Build output goes to standard error."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "bbsbench",
                    "bbs_serve", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out, "bbsbench"),
            os.path.join(out, "bbs", "examples", "bbs_serve"))


def run_driver(binary, daemon, args, work_dir):
    out_path = os.path.join(work_dir, "result.json")
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--out", out_path,
           "--work-dir", work_dir, "--daemon", daemon]
    if args.trace:
        cmd.append("--trace")
    # The driver and the daemon it spawns share a new process group, so a
    # timed-out or interrupted run leaves no process behind.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    with open(out_path) as f:
        return json.load(f)


def check(workload, rows):
    """The correctness gate over one set of result rows."""
    return benchlib.gate(
        rows, benchlib.load_expected(workload),
        benchlib.DEFECT_LIMITS[benchlib.CATALOGUE[workload]])


def pass_layers(binary, daemon, args, counts):
    """The layer only a dropped workload exercises, from its traced pass.

    serve_admission and restart_cached are not benchmark workloads: on a
    shared virtual machine their figures do not repeat within any bound
    the benchmark may set (see NOTES.md). Their traced passes still run,
    inside the traced runs named in PASSES, and supply the metrics of the
    layer they alone exercise. Their responses join the correctness
    gate."""
    workload, layer = PASSES[args.workload]
    pass_args = argparse.Namespace(workload=workload, seed=args.seed,
                                   seconds=PASS_SECONDS, trace=1)
    work_dir = tempfile.mkdtemp(prefix=workload + "-", dir=os.path.join(
        os.path.dirname(build_dir()), "runs"))
    try:
        doc = run_driver(binary, daemon, pass_args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if doc.get("client_errors"):
        log(workload, "pass client errors:", "; ".join(doc["client_errors"]))
    for label, rows in (("", doc["results"]),
                        ("replay ", doc["replay_results"])):
        passed = check(workload, rows)
        counts["wrong"] += passed["wrong"]
        for reason, n in passed["reasons"].items():
            counts["reasons"][workload + " pass " + label + reason] = n
    return layer(doc)


def record_expected(binary):
    os.makedirs(benchlib.EXPECTED_DIR, exist_ok=True)
    for workload in ("cold_solve", "sweep_explore", "serve_admission"):
        proc = subprocess.run([binary, "reference", "--workload", workload],
                              check=True, stdout=subprocess.PIPE, text=True)
        rows = json.loads(proc.stdout)
        table = {row[0]: [row[1], row[2]] for row in rows}
        path = benchlib.expected_path(workload)
        with gzip.open(path, "wt", compresslevel=9) as f:
            json.dump(table, f, separators=(",", ":"), sort_keys=True)
        log("recorded", len(table), "outcomes to", path)


def summarise(args, counts):
    log("workload %s seed %d: %d attempted, %d failed, %d wrong %s"
        % (args.workload, args.seed, counts["attempted"], counts["failed"],
           counts["wrong"], json.dumps(counts["reasons"], sort_keys=True)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--details", help="also write the full run summary "
                        "(metrics, gate counts) to this JSON file")
    args = parser.parse_args()
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")

    binary, daemon = ensure_built()
    if args.record_expected:
        record_expected(binary)
        return 0

    runs = os.path.join(os.path.dirname(build_dir()), "runs")
    os.makedirs(runs, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs)
    try:
        doc = run_driver(binary, daemon, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    counts = check(args.workload, doc["results"])
    if args.trace:
        # The replay must reproduce the measured statuses and objectives.
        replay = check(args.workload, doc["replay_results"])
        counts["wrong"] += replay["wrong"]
        for reason, n in replay["reasons"].items():
            counts["reasons"]["replay " + reason] = n
        metrics = benchlib.per_layer(doc)
        # The known defects, shown by requests the workload does not send.
        probe = benchlib.probe_gate(doc["probe_results"])
        counts["wrong"] += probe["wrong"]
        for reason, n in probe["reasons"].items():
            counts["reasons"]["probe " + reason] = n
        metrics.update(benchlib.defect_layer(probe))
        for layer in (benchlib.service_layer, benchlib.telemetry_layer):
            if layer is PASSES[args.workload][1]:
                metrics.update(pass_layers(binary, daemon, args, counts))
            else:
                metrics.update(layer(doc))
    else:
        metrics = benchlib.end_to_end(doc, counts)
    summarise(args, counts)
    for name, (value, unit) in metrics.items():
        log("  %-28s %14.6g %s" % (name, value, unit))

    result = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.details:
        with open(args.details, "w") as f:
            json.dump({"result": result, "gate": counts}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
