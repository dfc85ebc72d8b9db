"""Metric arithmetic, span analysis and the correctness gate of bbsbench.

Pure functions over the raw samples the C++ driver writes; run.py wires
them together and the self-tests in tests/ exercise them directly.
"""

import gzip
import json
import math
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# Workload -> catalogue of distinct requests (restart_cached replays the
# cold_solve stream, so both share one set of expected results).
CATALOGUE = {
    "cold_solve": "cold",
    "restart_cached": "cold",
    "sweep_explore": "sweep",
    "serve_admission": "serve",
}

# Objectives agree within this relative distance. The IPM stops at
# feas_tol = gap_tol = 1e-6, so a warm-started and a cold solve of one
# program land within a few 1e-6 of each other; bisected periods carry the
# search's rel_tol = 1e-4 on top.
OBJECTIVE_RTOL = 1e-4
PERIOD_RTOL = 5e-4
ABS_TOL = 1e-6

# Requests kept in a run must have this many samples beyond a reported p99.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples."""


# ---------------------------------------------------------------------------
# Percentiles and spreads
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolation percentile of `values` at q in [0, 1]."""
    if not values:
        raise InsufficientSamples("no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q, min_beyond=MIN_TAIL_SAMPLES):
    """The q-percentile, refused unless at least `min_beyond` samples lie
    strictly beyond it."""
    if len(values) * (1.0 - q) < min_beyond:
        raise InsufficientSamples(
            "p%g needs %d samples beyond it; %d samples give %.1f"
            % (100 * q, min_beyond, len(values), len(values) * (1.0 - q)))
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    if beyond < min_beyond:
        raise InsufficientSamples(
            "only %d samples beyond p%g" % (beyond, 100 * q))
    return value


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives
    them, the way the acceptance check reads a metric's run-to-run spread."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / med) if med else float("inf")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def covered(interval, children):
    """Length of `interval` covered by the union of the `children`
    intervals (each clipped to the parent)."""
    t0, t1 = interval
    clipped = sorted((max(a, t0), min(b, t1)) for a, b in children
                     if min(b, t1) > max(a, t0))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover. `spans` rows are [name, parent, request, t0, t1]
    with `parent` an index into the same list."""
    children = [[] for _ in spans]
    for row in spans:
        parent = row[1]
        if parent >= 0:
            children[parent].append((row[3], row[4]))
    return [(row[4] - row[3]) - covered((row[3], row[4]), children[i])
            for i, row in enumerate(spans)]


def per_request(spans):
    """{request: {name: summed duration}} plus, per request, the share of
    its api.engine span covered by the engine's child spans."""
    totals = {}
    coverage = {}
    for (name, _parent, request, t0, t1), own in zip(spans, self_times(spans)):
        slot = totals.setdefault(request, {})
        slot[name] = slot.get(name, 0.0) + (t1 - t0)
        if name == "api.engine" and t1 > t0:
            coverage[request] = 1.0 - own / (t1 - t0)
    return totals, coverage


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def load_expected(workload):
    """Recorded expected outcomes {key: [status, value]} of every request
    any seed of the workload can send."""
    with gzip.open(expected_path(workload), "rt") as f:
        return json.load(f)


def expected_path(workload):
    """One file per catalogue: the seed picks a cold request's recorded
    variant per slot, and the warm workloads serve one fixed set of
    structures, so no seed sends a request outside the recording."""
    return os.path.join(EXPECTED_DIR, "%s.json.gz" % CATALOGUE[workload])


def close(a, b, rtol):
    return abs(a - b) <= max(ABS_TOL, rtol * max(abs(a), abs(b)))


def values_match(expected, got, rtol=OBJECTIVE_RTOL):
    """Whether two outcome values (number, null, or list of either) agree
    within the solver tolerance."""
    if expected is None or got is None:
        return expected is None and got is None
    if isinstance(expected, list) or isinstance(got, list):
        if not (isinstance(expected, list) and isinstance(got, list)):
            return False
        return len(expected) == len(got) and all(
            values_match(e, g, rtol) for e, g in zip(expected, got))
    return close(float(expected), float(got), rtol)


# Failure kinds that are known program defects at the seed commit: the gate
# counts them (ok_share) and fails only on more of a kind than its limit.
KNOWN_DEFECTS = ("extra_numerical_failure", "cap_overshoot",
                 "period_overshoot", "false_infeasible")

# Most of each known defect a set of rows may show, as a share of the rows,
# per catalogue; every occurrence beyond a limit counts as wrong, and a
# kind not listed may not occur. The benchmark's workloads send no request
# that shows a known defect (the defect probe sends those), so their
# catalogues tolerate none. The serve catalogue's limits are 1.5-3x the
# largest share seen at the seed commit (NOTES.md); it runs only as a pass
# of a traced run.
DEFECT_LIMITS = {
    "cold": {},
    "sweep": {},
    "serve": {"cap_overshoot": 0.06, "false_infeasible": 0.001,
              "extra_numerical_failure": 0.001},
}

# Re-checks a capacity overshoot fails: the cap itself, and the memory the
# extra capacity takes ("cap_memory": the platform check passes once every
# capacity is clamped to its cap).
OVERSHOOT_CHECKS = {"cap", "cap_memory"}


def compare(key, expected, status, value, proven):
    """Verdict on one response against the cold reference outcome:
    "" when they agree, a known defect name, "reference_unsolved" when the
    response holds a re-verified answer the reference lacks, or
    "wrong: ..." otherwise. `proven` means every rounded allocation of the
    response passed the benchmark's re-checks."""
    exp_status, exp_value = expected
    if exp_status == "error" or (exp_status == "infeasible"
                                 and status == "ok"):
        # A re-verified allocation proves feasibility the reference missed
        # (the cold reference itself fails numerically on a few requests).
        return "reference_unsolved" if status != "ok" or proven \
            else "wrong: unverified answer where the reference has none"
    if exp_status != status:
        if status == "infeasible" and exp_status == "ok":
            return "false_infeasible"
        return "wrong: status %s, expected %s" % (status, exp_status)
    if key.endswith(".min_period"):
        if exp_value is None or value is None or \
                close(exp_value, value, PERIOD_RTOL):
            return "" if exp_value == value or (
                exp_value is not None and value is not None) else \
                "wrong: period found by one side only"
        if value > exp_value:
            return "period_overshoot"
        return "reference_unsolved" if proven else "wrong: period below reference"
    if isinstance(exp_value, list) or isinstance(value, list):
        if not (isinstance(exp_value, list) and isinstance(value, list)
                and len(exp_value) == len(value)):
            return "wrong: sweep shape"
        verdicts = set()
        for e, g in zip(exp_value, value):
            if e is None and g is None:
                continue
            if g is None:
                verdicts.add("false_infeasible")
            elif e is None:
                verdicts.add("reference_unsolved" if proven else "wrong")
            elif not close(e, g, OBJECTIVE_RTOL):
                verdicts.add("wrong")
        if "wrong" in verdicts:
            return "wrong: sweep point objective mismatch"
        if "false_infeasible" in verdicts:
            return "false_infeasible"
        return "reference_unsolved" if verdicts else ""
    return "" if values_match(exp_value, value) else \
        "wrong: objective mismatch"


def classify(row, expected):
    """Classifies one result row [key, status, value, failed_checks,
    error_code] against its expected outcome [status, value].

    Returns (failed, wrong, reason): `failed` counts against ok_share,
    `wrong` fails the gate. A numerical_failure error where the reference
    failed too agrees with it (failed, not wrong). The KNOWN_DEFECTS are
    failed, and wrong only beyond their limit (see gate): a
    numerical_failure the reference does not have
    (extra_numerical_failure); rounded capacities above the request's cap,
    with at most the memory they take failing the platform check
    (cap_overshoot); bisections that stop at a feasible period above the
    reference's (period_overshoot); requests or sweep points reported
    infeasible that the reference solves (false_infeasible). Anything else
    that disagrees with the reference or fails a re-check is wrong.
    """
    key, status, value, checks, error_code = row
    if status in ("missing", "unparseable"):
        return True, True, status
    if status == "error":
        if error_code != "numerical_failure":
            return True, True, "error:" + (error_code or "?")
        if expected[0] == "error":
            return True, False, "numerical_failure"
        return True, False, "extra_numerical_failure"
    failed_checks = set(checks.split("+")) if checks else set()
    if failed_checks and ("cap" not in failed_checks
                          or failed_checks - OVERSHOOT_CHECKS):
        return True, True, "recheck:" + checks
    verdict = compare(key, expected, status, value, not failed_checks)
    if verdict.startswith("wrong"):
        return True, True, verdict
    if failed_checks:
        return True, False, "cap_overshoot"
    if verdict in KNOWN_DEFECTS:
        return True, False, verdict
    return False, False, verdict


def gate(rows, expected, limits):
    """Counts over result rows: attempted, failed, wrong, and the failure
    reasons. `expected` maps key -> [status, value]; a row without one is
    wrong. `limits` maps a known defect to the share of the rows it may
    reach (DEFECT_LIMITS); occurrences beyond it are wrong."""
    out = {"attempted": len(rows), "failed": 0, "wrong": 0, "reasons": {}}
    for row in rows:
        exp = expected.get(row[0])
        if exp is None:
            failed, wrong, reason = True, True, "wrong: no expected result"
        else:
            failed, wrong, reason = classify(row, exp)
        out["failed"] += int(failed)
        out["wrong"] += int(wrong)
        if reason:
            out["reasons"][reason] = out["reasons"].get(reason, 0) + 1
    for kind in KNOWN_DEFECTS:
        excess = out["reasons"].get(kind, 0) - math.floor(
            limits.get(kind, 0.0) * len(rows))
        if excess > 0:
            out["wrong"] += excess
            out["reasons"]["over limit: " + kind] = excess
    return out


# The defect probe (a traced run's fixed requests that show the known
# defects) tolerates any number of them and reports each kind's count.
PROBE_KINDS = ("numerical_failure",) + KNOWN_DEFECTS


def probe_gate(rows):
    """The gate over the defect probe's rows: cold variants the reference
    fails on, and the sweep catalogue's bisections and sweeps at the
    default rounding tolerance. Known defects are counted, anything else
    that disagrees with the recording is wrong."""
    expected = dict(load_expected("cold_solve"))
    expected.update(load_expected("sweep_explore"))
    return gate(rows, expected, {kind: 1.0 for kind in KNOWN_DEFECTS})


def defect_layer(probe):
    """defects.* metrics: how often the probe shows each known defect."""
    return {"defects." + kind: (probe["reasons"].get(kind, 0), "count")
            for kind in PROBE_KINDS}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def host_factor(nominal_ms, before_ms, after_ms):
    """Scales a time measured between two calibration timings to the
    nominal host speed, at which the kernel takes `nominal_ms`. Other
    tenants of a shared host slow everything on it, the kernel and the
    program alike, for minutes at a time; the kernel uses no code of the
    program, so a change to the program does not move the factor."""
    return nominal_ms / ((before_ms + after_ms) / 2.0)


def rounds(doc):
    """The run's complete rounds, each (latencies, CPU times) scaled to the
    nominal host speed by the calibrations timed before and after the
    round. The closed loop sends its stream in rounds of `round`
    requests."""
    size = doc["round"]
    latency, cpu = doc["latency_ms"], doc["request_cpu_ms"]
    cal = doc["calibration_ms"]
    out = []
    for k in range(len(cal) - 1):
        f = host_factor(doc["calibration_nominal_ms"], cal[k], cal[k + 1])
        out.append(([f * v for v in latency[k * size:(k + 1) * size]],
                    [f * v for v in cpu[k * size:(k + 1) * size]]))
    return out


def setup_times(doc):
    """Each set-up's time, scaled like the rounds."""
    cal = doc["setup_calibration_ms"]
    return [s * host_factor(doc["calibration_nominal_ms"], cal[k], cal[k + 1])
            for k, s in enumerate(doc["setup_s"])]


def end_to_end(doc, gate_counts):
    """The seven end-to-end metrics of one measured run, its times at the
    nominal host speed (rounds, setup_times). With one caller, throughput
    is completed requests over their summed latency."""
    scaled = rounds(doc)
    latency = [v for lat, _ in scaled for v in lat]
    attempted = doc["attempted"]
    return {
        "throughput_rps": (len(latency) / (sum(latency) / 1000.0), "1/s"),
        "p50_ms": (percentile(latency, 0.50), "ms"),
        "p99_ms": (tail_percentile(latency, 0.99), "ms"),
        "cpu_ms_per_req": (sum(sum(cpu) for _, cpu in scaled) / len(latency),
                           "ms"),
        "setup_s": (statistics.median(setup_times(doc)), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "ok_share": ((attempted - gate_counts["failed"]) / attempted,
                     "share"),
    }


COUNTER_FIELDS = ("tasks", "fresh", "factor_nnz", "ipm_iterations", "solves",
                  "warm_started", "recovered", "symbolic_loads",
                  "seed_rejects", "request_bytes", "response_bytes")


def counter_rows(rows):
    return [dict(zip(COUNTER_FIELDS, row)) for row in rows]


def thirds(rows):
    """Splits rows (dicts with 'tasks') into three groups by the rank of
    their task count: the small, middle and large third."""
    ranked = sorted(rows, key=lambda r: r["tasks"])
    n = len(ranked)
    return [ranked[k * n // 3:(k + 1) * n // 3] for k in range(3)]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def stats_delta(before, after):
    """Steals and requests served per worker by the daemon over the timed
    window, from two {"kind":"stats"} snapshots."""
    b, a = before["result"], after["result"]
    served = [wa["engine"]["requests"] - wb["engine"]["requests"]
              for wb, wa in zip(b["workers"], a["workers"])]
    return {"stolen": a["stolen"] - b["stolen"], "served": served}


def service_layer(doc):
    """The service.* metrics of a traced run. In process, the "queue" is
    the closed loop's gap between calls and the "transport" is
    Engine::run outside its own clock, with no steals and one worker."""
    metrics = {
        "service.queue_ms_p50": (percentile(doc["queue_ms"], 0.5), "ms"),
        "service.queue_ms_p99": (tail_percentile(doc["queue_ms"], 0.99),
                                 "ms"),
        "service.transport_ms_p50": (percentile(doc["transport_ms"], 0.5),
                                     "ms"),
        "service.steals": (0, "count"),
        "service.worker_share_max": (1.0, "share"),
    }
    if "stats_before" in doc:
        delta = stats_delta(doc["stats_before"], doc["stats_after"])
        served = delta["served"]
        metrics["service.steals"] = (delta["stolen"], "count")
        metrics["service.worker_share_max"] = (
            max(served) / sum(served) if sum(served) else 0.0, "share")
    return metrics


def telemetry_layer(doc):
    """The telemetry.* metrics of a traced run."""
    rows = counter_rows(doc["counters"])
    return {
        "telemetry.cache_load_ms": (doc["cache_load_ms"], "ms"),
        "telemetry.symbolic_loads": (sum(r["symbolic_loads"] for r in rows),
                                     "count"),
        "telemetry.seed_rejects": (sum(r["seed_rejects"] for r in rows),
                                   "count"),
    }


def per_layer(doc):
    """The per-layer metrics of one in-process traced run, except the
    service and telemetry layers (service_layer, telemetry_layer)."""
    spans = doc["spans"]
    totals, coverage = per_request(spans)
    replayed = {r: t for r, t in totals.items() if "api.engine" in t}
    rows = counter_rows(doc["counters"])
    warm_spans = doc.get("warmup", {}).get("spans", []) if doc.get("warmup") \
        else []
    warm_rows = counter_rows(doc["warmup"]["counters"]) if doc.get("warmup") \
        else []

    def layer_mean(*names):
        return mean([sum(t.get(n, 0.0) for n in names)
                     for t in replayed.values()])

    def span_median(name):
        values = [s[4] - s[3] for s in spans + warm_spans if s[0] == name]
        return statistics.median(values) if values else 0.0

    # Symbolic work happens once per structure: on a fresh session, the
    # first KKT factorisation minus the numeric-only second one.
    fresh = []
    for source_spans, source_rows in ((spans, rows), (warm_spans, warm_rows)):
        by_request = per_request(source_spans)[0]
        requests = sorted(r for r in by_request if "api.engine" in by_request[r])
        for request, row in zip(requests, source_rows):
            t = by_request[request]
            if row["fresh"] and "solver.kkt_first" in t:
                fresh.append(dict(row, symbolic_ms=max(
                    0.0, t["solver.kkt_first"] - t["solver.kkt_numeric"])))

    solves = sum(r["solves"] for r in rows)
    metrics = {
        "io.parse_ms": (layer_mean("io.parse"), "ms"),
        "io.serialise_ms": (layer_mean("io.serialise"), "ms"),
        "io.request_kb": (mean([r["request_bytes"] for r in rows]) / 1024.0,
                          "KiB"),
        "api.engine_ms": (statistics.median(doc["engine_ms"]), "ms"),
        "core.build_ms": (layer_mean("core.build", "core.update"), "ms"),
        "core.mapping_ms": (layer_mean("core.mapping", "core.latency"), "ms"),
        "dataflow.mcr_ms": (layer_mean("dataflow.mcr"), "ms"),
        "solver.ipm_ms": (layer_mean("solver.ipm", "core.session_solve",
                                     "core.bisection"), "ms"),
        "solver.ipm_iterations": (mean([r["ipm_iterations"] for r in rows]),
                                  "count"),
        "solver.warm_started_share": (
            sum(r["warm_started"] for r in rows) / solves if solves else 0.0,
            "share"),
        "solver.recovered_share": (
            sum(r["recovered"] for r in rows) / solves if solves else 0.0,
            "share"),
        "solver.kkt_numeric_ms": (span_median("solver.kkt_numeric"), "ms"),
        "solver.kkt_solve_ms": (span_median("solver.kkt_solve"), "ms"),
    }
    for k, group in enumerate(thirds(fresh), start=1):
        metrics["solver.kkt_symbolic_ms.t%d" % k] = (
            statistics.median([r["symbolic_ms"] for r in group])
            if group else 0.0, "ms")
        metrics["linalg.factor_nnz.t%d" % k] = (
            statistics.median([r["factor_nnz"] for r in group])
            if group else 0.0, "count")

    stats = doc["engine_stats"]
    lookups = stats["pool_hits"] + stats["pool_misses"]
    metrics["api.pool_hit_ratio"] = (
        stats["pool_hits"] / lookups if lookups else 0.0, "share")
    metrics["api.evictions"] = (stats["evictions"], "count")

    engine_spans = [t["api.engine"] for t in replayed.values()]
    metrics["trace.overhead_share"] = (
        statistics.median(engine_spans) / statistics.median(doc["engine_ms"])
        - 1.0, "share")
    metrics["trace.child_coverage"] = (
        statistics.median(coverage.values()) if coverage else 0.0, "share")
    metrics["host.calibration_ms"] = (
        statistics.median(doc["calibration_ms"]), "ms")
    return metrics
