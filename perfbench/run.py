#!/usr/bin/env python3
"""Repo benchmark: builds mfn_perfbench from ../src and runs one workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/. Progress goes to stderr; stdout
gets a {"context": ...} line, a table of the workload's metrics with their
units, the output checks, and last the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json for the named
workload. A run during which the host's CPU steal share exceeds
STEAL_REPEAT is repeated once, time permitting, and the attempt with less
steal is reported; attempted, failed and the checks cover both attempts.

--trace 1 runs every workload traced (the named one for the full
--seconds, the others for SHORT_FRACTION of it) plus a pool-1 repeat of
train, reports every per-layer metric, and writes Chrome trace-event JSON
files to <build dir>/traces/.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole invocation, build excluded
STEAL_REPEAT = 0.05
SHORT_FRACTION = 0.25
MIN_SHORT_S = 3.0
POOL1_FRACTION = 0.34


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then (re)build mfn_perfbench; returns its path."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "mfn_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return out / "mfn_perfbench"


def cpu_times():
    """(steal, total) jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def steal_share(t0, t1):
    if t0 is None or t1 is None:
        return None
    return (t1[0] - t0[0]) / max(t1[1] - t0[1], 1)


def source_digest():
    """sha256 over the library sources: identifies the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and p.suffix in (".h", ".cpp"):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


class Runner:
    def __init__(self, binary, workloads, seed):
        self.binary = binary
        self.workloads = workloads
        self.seed = seed
        self.t_start = time.monotonic()
        self.pools = {}

    def left_s(self):
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def run(self, workload, seconds, pool=None, trace_file=None):
        """Runs the workload in its own process; returns its raw result."""
        wl = self.workloads[workload]
        cmd = [str(self.binary), workload, "--seed", str(self.seed),
               "--seconds", str(seconds)]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        for k, v in wl.get("args", {}).items():
            cmd += [f"--{k}", str(v)]
        pool = wl["pool"] if pool is None else pool
        env = dict(os.environ, MFN_NUM_THREADS=str(pool))
        log(f"{workload}: pool {pool}, {seconds:g} s"
            + (", traced" if trace_file else ""))
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=max(self.left_s(), 1.0))
        lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
        if r.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with {r.returncode}")
        self.pools[workload] = pool
        return json.loads(lines[-1])


def value(raw, name):
    m = raw["metrics"].get(name)
    return m["value"] if m else None


def finite_nonzero(v):
    return isinstance(v, (int, float)) and math.isfinite(v) and v != 0


def run_untraced(runner, workload, seconds):
    """Runs the workload, once more if the host stole more than
    STEAL_REPEAT of the CPU time and the deadline leaves room. Returns
    (raw result of the attempt with less steal, every attempt as
    (steal share, raw))."""
    attempts = []
    while True:
        t0, s0 = time.monotonic(), cpu_times()
        raw = runner.run(workload, seconds)
        steal = steal_share(s0, cpu_times())
        attempts.append((steal, raw))
        took = time.monotonic() - t0
        if (steal is None or steal <= STEAL_REPEAT or len(attempts) == 2
                or runner.left_s() < 1.3 * took):
            break
        log(f"host CPU steal {steal:.1%} over the run; repeating it")
    return min(attempts, key=lambda a: a[0] or 0.0)[1], attempts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if opts.workload not in workloads:
        raise SystemExit(f"unknown workload {opts.workload!r}; one of "
                         + ", ".join(workloads))
    binary = build()

    runner = Runner(binary, workloads, opts.seed)
    steal0 = cpu_times()
    raws = {}  # every process run, by label
    metrics = {}
    if opts.trace == 0:
        raw, attempts = run_untraced(runner, opts.workload, opts.seconds)
        for i, (_, r) in enumerate(attempts):
            raws[opts.workload + ("" if i == 0 else f"@attempt{i + 1}")] = r
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": value(raw, m["name"]),
                                  "unit": m["unit"]}
    else:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        short = max(MIN_SHORT_S, opts.seconds * SHORT_FRACTION)
        layers = {}
        for wl in workloads:
            secs = opts.seconds if wl == opts.workload else short
            raws[wl] = runner.run(
                wl, secs, trace_file=traces / f"{wl}-seed{opts.seed}.json")
            layers.update(raws[wl]["layers"])
        # threading: the same training loop at pool 1, in its own process.
        raws["train@pool1"] = runner.run(
            "train", max(MIN_SHORT_S, opts.seconds * POOL1_FRACTION), pool=1)
        pps, pps1 = (value(raws[k], "throughput_per_s")
                     for k in ("train", "train@pool1"))
        layers["threading.train_speedup_vs_1"] = (
            pps / pps1 if finite_nonzero(pps) and finite_nonzero(pps1)
            else None)
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"]),
                                  "unit": m["unit"]}
        attempts = None

    attempted = sum(r["attempted"] for r in raws.values())
    failed = sum(r["failed"] for r in raws.values())
    checks = {f"{label}:{k}": ok for label, r in raws.items()
              for k, ok in r["checks"].items()}
    missing = [k for k, m in metrics.items()
               if not isinstance(m["value"], (int, float))
               or not math.isfinite(m["value"])]
    if opts.trace == 0:
        # End-to-end metrics must be measured and non-zero.
        missing += [k for k, m in metrics.items()
                    if k not in missing and not finite_nonzero(m["value"])]
    for k in missing:
        log(f"metric {k} was not measured")
    correct = failed == 0 and all(checks.values()) and not missing

    context = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace,
        "nproc": os.cpu_count(),
        "pool": runner.pools,
        "simd_tier": next(iter(raws.values()))["context"].get("simd_tier"),
        "git_commit": git_commit(), "src_sha256_16": source_digest(),
        "cpu_steal_share": steal_share(steal0, cpu_times()),
        "raw": {label: {"metrics": r["metrics"], "context": r["context"]}
                for label, r in raws.items()},
    }
    if attempts is not None:
        context["attempt_steal_shares"] = [s for s, _ in attempts]
    print(json.dumps({"context": context}))
    for label, r in raws.items():
        for k, m in r["metrics"].items():
            v = m["value"]
            print(f"{label:>18} {k:<18} {v if v is not None else 'n/a':>14}"
                  f" {m['unit']}")
    print(f"{'all':>18} {'failed_frac':<18} {failed / max(attempted, 1):>14}"
          " ratio")
    for k, ok in checks.items():
        print(f"check {k}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(2)
