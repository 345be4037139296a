#!/usr/bin/env python3
"""Diff two mfn_perf.jsonl files and fail on kernel regressions.

Usage: perf_diff.py BASELINE.jsonl CURRENT.jsonl [--threshold 0.20]

Each line is a JSON object with an "mfn_perf" kind plus metric fields.
Lines are keyed by their kind and identifying fields (batch/op/size...),
and every *higher-is-better* metric (gflops, qps, gbps, melems_per_sec,
patches_per_sec, ...) present in both files is compared. A metric that
drops by more than the threshold fails the diff; newly-added lines and
newly-added metrics are listed as INFO and never fail or warn (the
baseline simply has no datapoint for them — a freshly landed benchmark
must not trip the gate that protects existing ones). Kernel lines that
disappear entirely DO fail — that is the regression mode the perf job
exists to catch.
"""
import argparse
import json
import sys

# Metrics where larger is better; anything else (sec_*, *_per_step,
# threads, sizes) is identifying or lower-is-better context we don't gate
# on.
RATE_METRICS = {
    "gflops",
    "qps",
    "gbps",
    "melems_per_sec",
    "patches_per_sec",
    "loop_qps",
    # Serving: a cache hit-rate drop is a regression exactly like a
    # throughput drop — it means encodes that used to be served from the
    # latent cache are being recomputed.
    "hit_rate",
    # Overload robustness (serve_overload lines): the fraction of issued
    # requests that beat their deadline under arrival > capacity. A drop
    # means the deadline/admission/brownout stack is protecting less
    # traffic than it used to.
    "deadline_hit_rate",
}
# threads is identifying, not a metric: a 4-thread run must never be
# diffed against a 1-thread baseline as if it were the same datapoint.
# Likewise clients: the serve lines at 1/4/16 clients are three distinct
# datapoints. And precision: the bf16/int8 decode_plan/serve/accuracy
# lines are separate series from the fp32 lines (which omit the field, so
# their baseline identity is unchanged).
ID_FIELDS = ("mfn_perf", "op", "batch", "channels", "queries", "m", "n",
             "k", "params", "threads", "clients", "precision",
             # serve_overload: the baseline and hardened runs are distinct
             # series, as are different offered loads.
             "hardened", "arrival_rps",
             # dist_train: each world size (1/2/4 workers) is its own
             # scaling datapoint; a 4-worker patches/sec must never be
             # compared against the single-worker baseline.
             "world",
             # serve_tenants: the per-tenant slices of a multi-tenant run
             # are distinct series (the aggregate line omits "tenant"), as
             # are different tenant counts and traffic skews. All three are
             # absent on pre-existing lines, so baseline identity there is
             # unchanged.
             "tenant", "tenants", "zipf",
             # train_step: the gamma = 0 step (no equation loss) is its own
             # series; the gamma = 0.0125 line omits the field and keeps
             # its baseline identity.
             "gamma",
             # conv3d_bwd: one series per conv shape of the U-Net. Absent
             # on every other line, so their identity is unchanged.
             "filters", "kernel", "volume",
             # decode_bwd: one series per decoder (small_default,
             # dist_tiny) and shape; absent on every other line.
             "decoder")


def load(path):
    lines = {}
    with open(path) as f:
        for raw in f:
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if "mfn_perf" not in obj:
                continue
            key = tuple((k, obj[k]) for k in ID_FIELDS if k in obj)
            lines[key] = obj
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max fractional drop before failing (default 0.20)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failures = []

    for key, bobj in sorted(base.items()):
        name = " ".join(f"{k}={v}" for k, v in key)
        cobj = cur.get(key)
        if cobj is None:
            failures.append(f"MISSING: {name} emitted no line this run")
            continue
        for metric in sorted(RATE_METRICS & bobj.keys() & cobj.keys()):
            b, c = float(bobj[metric]), float(cobj[metric])
            if b <= 0:
                continue
            change = (c - b) / b
            marker = ""
            if change < -args.threshold:
                failures.append(
                    f"REGRESSION: {name} {metric} {b:.3g} -> {c:.3g} "
                    f"({change:+.1%})")
                marker = "  <-- FAIL"
            print(f"{name}: {metric} {b:.3g} -> {c:.3g} ({change:+.1%})"
                  f"{marker}")
        # Metrics the current run added to an existing line: informational
        # only — the baseline has nothing to compare them against.
        for metric in sorted(RATE_METRICS & (cobj.keys() - bobj.keys())):
            print(f"INFO new metric: {name} {metric}={cobj[metric]}")

    # Lines with no baseline datapoint at all (a benchmark added since the
    # baseline was recorded): informational only, never a warning/failure.
    for key in sorted(cur.keys() - base.keys()):
        print("INFO new line:", " ".join(f"{k}={v}" for k, v in key))

    if failures:
        print()
        for f in failures:
            print(f, file=sys.stderr)
        return 1
    print("\nperf diff OK (threshold {:.0%})".format(args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
