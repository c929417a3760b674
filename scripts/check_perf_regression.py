#!/usr/bin/env python3
"""CI perf-regression gate over the timing benches.

Compares a fresh (usually --smoke) BENCH json against the checked-in
baseline of the same bench and fails when any ns metric regresses beyond
the tolerance band. The extractor dispatches on the report's "bench" tag:
estimator-throughput reports gate serving-path ns/query, incremental-
maintenance reports gate the O(Δ) refresh cost, fleet-serving reports
gate the transport round-trip medians. Cross-machine absolute
timings are noisy, so the band is wide by design: this gate catches "the
serving core got 2x slower" (an accidental O(k) loop, a dropped fast
path), not 5% drift.

Skips (exit 0, reason recorded) when the runner reports fewer cores than
--min-cores or than the baseline's host recorded: single-core CI runners
are typically shared/throttled enough that even the wide band
false-positives, and a baseline measured with more cores than the runner
has (thread hand-offs, socket round trips) is not comparable to it.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def single_thread_metrics(doc):
    """Flattens per-k, per-class ns/query metrics to {name: value}."""
    metrics = {}
    for config in doc.get("configurations", []):
        k = config.get("k")
        for row in config.get("single_thread", []):
            base = f"k={k}/{row.get('class')}"
            if "compiled_ns_per_query" in row:
                metrics[f"{base}/compiled"] = row["compiled_ns_per_query"]
        for row in config.get("batch", []):
            if row.get("threads") == 1 and row.get("qps"):
                # Stored inverted (ns/query) so "bigger is worse" holds
                # uniformly for every metric.
                metrics[f"k={k}/batch1_ns_per_query"] = 1e9 / row["qps"]
    return metrics


def incremental_maintenance_metrics(doc):
    """Per-(pattern, churn) refresh cost in ns, incremental runs only.

    The refresh repairs a fixed-capacity reservoir (4096 slots regardless
    of bench scale), so its absolute cost is comparable between a --smoke
    candidate and the checked-in fast-scale baseline. Fallback rows are a
    full rebuild — their cost scales with n, so they are excluded; per-Δ-row
    and speedup metrics are likewise scale-dependent and not gated.
    """
    metrics = {}
    for row in doc.get("runs", []):
        if not row.get("incremental"):
            continue
        refresh_ms = row.get("refresh_ms")
        if refresh_ms:
            name = f"{row.get('pattern')}/churn={row.get('churn')}/refresh_ns"
            metrics[name] = refresh_ms * 1e6
    return metrics


def fleet_serving_metrics(doc):
    """Transport round-trip latency in us, per path (DESIGN.md 17).

    One estimate frame through the in-process Transport and through a
    unix-domain socket: envelope encode + serve + decode (+ syscalls on
    the socket path). A single frame's cost does not scale with bench n,
    so a --smoke candidate is comparable against the checked-in baseline.
    Medians only: p99 on a shared CI runner is scheduler noise. The
    mixed-traffic QPS and scalar-serving ratios are guarded inside the
    bench binary itself and are not re-gated here.
    """
    metrics = {}
    transit = doc.get("transport", {})
    for name in ("in_process_median_us", "unix_socket_median_us"):
        value = transit.get(name)
        if value:
            metrics[f"transport/{name}"] = value
    return metrics


def extract_metrics(doc):
    if doc.get("bench") == "incremental_maintenance":
        return incremental_maintenance_metrics(doc)
    if doc.get("bench") == "fleet_serving":
        return fleet_serving_metrics(doc)
    return single_thread_metrics(doc)


def record(message):
    print(message)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(message + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in BENCH json")
    parser.add_argument("candidate", help="freshly measured BENCH json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when candidate/baseline ns/query exceeds this ratio",
    )
    parser.add_argument(
        "--min-cores",
        type=int,
        default=2,
        help="skip the gate when the runner reports fewer cores",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    candidate = load(args.candidate)

    cores = candidate.get("host", {}).get("hardware_concurrency", 0)
    if cores < args.min_cores:
        record(
            f"PERF GATE SKIPPED: runner reports hardware_concurrency={cores} "
            f"(< {args.min_cores}); shared single-core runners are too noisy "
            "for even the wide tolerance band. No comparison performed."
        )
        return 0
    baseline_cores = baseline.get("host", {}).get("hardware_concurrency", 0)
    if cores < baseline_cores:
        record(
            f"PERF GATE SKIPPED: runner reports hardware_concurrency={cores}, "
            f"fewer than the {baseline_cores} the baseline was measured on; "
            "its timings are not comparable. No comparison performed."
        )
        return 0

    base_metrics = extract_metrics(baseline)
    cand_metrics = extract_metrics(candidate)
    shared = sorted(set(base_metrics) & set(cand_metrics))
    if not shared:
        record("PERF GATE ERROR: no comparable metrics between the reports")
        return 1

    regressions = []
    print(f"{'metric':40s} {'baseline':>10s} {'candidate':>10s} {'ratio':>7s}")
    for name in shared:
        base_value = base_metrics[name]
        cand_value = cand_metrics[name]
        ratio = cand_value / base_value if base_value > 0 else float("inf")
        flag = " REGRESSION" if ratio > args.tolerance else ""
        print(
            f"{name:40s} {base_value:10.2f} {cand_value:10.2f} "
            f"{ratio:6.2f}x{flag}"
        )
        if ratio > args.tolerance:
            regressions.append((name, ratio))

    if regressions:
        record(
            f"PERF GATE FAILED: {len(regressions)} metric(s) beyond "
            f"{args.tolerance:.1f}x tolerance: "
            + ", ".join(f"{n} ({r:.2f}x)" for n, r in regressions)
        )
        return 1
    record(
        f"PERF GATE OK: {len(shared)} metrics within {args.tolerance:.1f}x "
        f"of baseline (runner cores: {cores})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
