#!/usr/bin/env python3
"""One-command benchmark of the peer sampling service.

Builds benchmark/ (a standalone CMake project over the repository's
libraries) in Release, runs each workload in its own process, checks the
outputs and prints every metric by name with its unit.

  python3 benchmark/run.py --seed 42            # full set: 5 runs/workload
  python3 benchmark/run.py --seed 42 --trace    # + one traced run each
  python3 benchmark/run.py --smoke              # every workload, tiny sizes
  python3 benchmark/run.py --workload event --seed 3 --seconds 10 --trace 0
                                                # one run; last stdout line
                                                # is the result object
  python3 benchmark/run.py compare A.json B.json [--cross-host]

BENCHMARK.json at the repository root names the workloads and the metrics;
benchmark/README.md explains them.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
RUNS_PER_SET = 5
BUILD_TIMEOUT_S = 850

# Metrics a workload reports beyond BENCHMARK.json's: they exist on only
# some workloads, so they are printed and compared but not gated.
REPORTED = {
    "exch_per_s_mt": "higher",
    "sim.par_speedup": "higher",
    "sim.par_steady_allocs": "lower",
    "sim.cycle_step_ns": "lower",
    "sim.par_cycle_ns": "lower",
    "sim.par_cycle_1lane_ns": "lower",
    "sim.event_ns": "lower",
    "sim.par_event_windows": "lower",
    "sim.par_event_deferred_per_window": "higher",
    "sim.par_event_pooled_frac": "higher",
    "transport.seam_ratio": "lower",
    "transport.loopback_ns": "lower",
    "transport.event_ns": "lower",
    "transport.seam_marginal_ns": "lower",
    "experiments.measure_ms": "lower",
    "experiments.cycle_ms": "lower",
    "rtt_p50_ms": "lower",
    "rtt_p99_ms": "lower",
    "rtt_tail_ms": "lower",
    "bench.gen_late_p99_ms": "lower",
    "transport.loop_busy_frac": "lower",
    "transport.achieved_exch_per_s": "higher",
    "transport.udp_datagrams_per_poll": "higher",
    "transport.udp_send_ns": "lower",
    "transport.udp_poll_self_ns": "lower",
    "transport.on_tick_self_ns": "lower",
    "transport.on_frame_self_ns": "lower",
}


class BenchError(Exception):
    """A failure that leaves no valid result (build, crash, bad output)."""


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build and run ----------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "pss_bench").resolve()


def build():
    """Configures once and builds pss_bench; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no library sources to build "
                         "(expected CMakeLists.txt and src/ beside benchmark/)")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "pss_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {' '.join(cmd)}: {e}") from e
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    binary = out / "pss_bench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_workload(binary, workload, seed, seconds, trace=False, smoke=False,
                 trace_out=None):
    """Runs one workload in its own process; returns its result object."""
    cmd = [str(binary), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: pss_bench exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"{workload}: unreadable result: {e}") from e


def result_line(result, spec, trace):
    """The single-run result: exactly correct/attempted/failed/metrics.

    Failed output checks count as failed operations, so a run whose checks
    fail shows in the failed share as well as in `correct`.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        value = None if got is None else got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{result['workload']}: metric {m['name']} "
                             "missing or not finite")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    checks = result.get("checks", {})
    failed_checks = sum(1 for ok in checks.values() if not ok)
    positive = trace or all(v["value"] > 0 for v in metrics.values())
    return {
        "correct": bool(result["correct"]) and positive,
        "attempted": int(result["attempted"]) + len(checks),
        "failed": int(result["failed"]) + failed_checks,
        "metrics": metrics,
    }


# --- host fingerprint -------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def host_fingerprint(result):
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    if cpu == "unknown":
        cpu = platform.processor() or platform.machine()
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "unknown"
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False)
        git = describe.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git = "unknown"
    host = result.get("host", {})
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "l3": l3,
        "simd": host.get("simd", "unknown"),
        "compiler": host.get("compiler", "unknown"),
        "build_type": host.get("build_type", "unknown"),
        "lanes": host.get("lanes"),
        "git_describe": git,
    }


HOST_KEYS = ("cpu_model", "nproc", "l3")


def same_host(a, b):
    return all(a.get(k) == b.get(k) for k in HOST_KEYS)


# --- statistics and checks --------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs):
    """{workload: {metric: {median, q1, q3, n, unit, values}}} over runs."""
    grouped = {}
    for run in runs:
        w = run["workload"]
        for name, m in run["metrics"].items():
            if m["value"] is None:
                continue
            slot = grouped.setdefault(w, {}).setdefault(
                name, {"unit": m["unit"], "values": []})
            slot["values"].append(m["value"])
    summary = {}
    for w, metrics in grouped.items():
        summary[w] = {}
        for name, slot in metrics.items():
            q1, med, q3 = quartiles(slot["values"])
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "n": len(slot["values"]), "unit": slot["unit"],
                                "values": slot["values"]}
    return summary


def check_results(runs, spec, trace_runs=()):
    """Every output check a results file must pass; returns failure strings."""
    failures = []
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    hashes = {}
    for run in runs:
        w = run.get("workload", "?")
        if not run.get("correct"):
            bad = [k for k, ok in run.get("checks", {}).items() if not ok]
            failures.append(f"{w} seed {run.get('seed')}: checks failed: "
                            f"{', '.join(bad) or 'correct is false'}")
        if run.get("attempted", 0) < 1:
            failures.append(f"{w}: no exchange attempted")
        for name in e2e:
            value = run.get("metrics", {}).get(name, {}).get("value")
            if not isinstance(value, (int, float)) or not value > 0:
                failures.append(f"{w}: end-to-end metric {name} missing or "
                                "not positive")
        series = run.get("info", {}).get("series_hash")
        if series is not None:
            hashes.setdefault((w, run.get("seed")), set()).add(series)
    for (w, seed), seen in hashes.items():
        if len(seen) > 1:
            failures.append(f"{w} seed {seed}: series hash differs across "
                            f"runs: {sorted(seen)}")
    for run in trace_runs:
        w = run.get("workload", "?")
        if not run.get("correct"):
            failures.append(f"{w} traced run: checks failed")
        missing = [n for n in layers if n not in run.get("metrics", {})]
        if missing:
            failures.append(f"{w} traced run: per-layer metrics missing: "
                            f"{', '.join(missing)}")
    return failures


# --- compare ----------------------------------------------------------------

def metric_rules(spec):
    """name -> (better, bound or None) for every metric a run may report."""
    rules = {name: (better, None) for name, better in REPORTED.items()}
    for m in spec["per_layer"]:
        rules[m["name"]] = (m["better"], None)
    for m in spec["end_to_end"]:
        rules[m["name"]] = (m["better"], m["bound"])
    return rules


def verdict(a, b, better, bound):
    """better / within bound / worse / unresolved for one metric.

    With a bound (end-to-end metrics): unresolved when either side's
    quartile spread, as a share of its median, exceeds the bound — unless
    every run of B beats every run of A; worse when B's median is worse by
    more than the bound; better when it is better by more than A's own
    spread. Without a bound the medians must differ by more than the larger
    quartile spread to count as a change.
    """
    sign = 1 if better == "higher" else -1
    a_med, b_med = a["median"], b["median"]
    gain = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    a_spread = (a["q3"] - a["q1"]) / abs(a_med) if a_med else 0.0
    b_spread = (b["q3"] - b["q1"]) / abs(b_med) if b_med else 0.0
    if bound is None:
        noise = max(a_spread, b_spread)
        if gain > noise:
            return "better"
        if gain < -noise:
            return "worse"
        return "same"
    if max(a_spread, b_spread) > bound:
        a_vals, b_vals = a["values"], b["values"]
        if all(sign * bv > sign * av for av in a_vals for bv in b_vals):
            return "better"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > a_spread:
        return "better"
    return "within bound"


def compare(a_doc, b_doc, spec, cross_host=False):
    """Returns (lines to print, no end-to-end metric worse or unresolved)."""
    if not same_host(a_doc["host"], b_doc["host"]) and not cross_host:
        raise BenchError(
            "results come from different hosts ("
            + ", ".join(f"{k}: {a_doc['host'].get(k)} vs {b_doc['host'].get(k)}"
                        for k in HOST_KEYS
                        if a_doc["host"].get(k) != b_doc["host"].get(k))
            + "); pass --cross-host to compare anyway")
    rules = metric_rules(spec)
    gated = {m["name"] for m in spec["end_to_end"]}
    lines, ok = [], True
    a_sum, b_sum = a_doc["summary"], b_doc["summary"]
    for w in sorted(set(a_sum) & set(b_sum)):
        lines.append(f"== {w}")
        lines.append(f"  {'metric':36} {'A median [q1, q3]':>34} "
                     f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
        for name in sorted(set(a_sum[w]) & set(b_sum[w]),
                           key=lambda n: (n not in gated, n)):
            a, b = a_sum[w][name], b_sum[w][name]
            better, bound = rules.get(name, (None, None))
            v = verdict(a, b, better, bound) if better else "n/a"
            if name in gated and v in ("worse", "unresolved"):
                ok = False
            change = ((b["median"] - a["median"]) / abs(a["median"]) * 100
                      if a["median"] else 0.0)
            wins = ""
            if better and len(a["values"]) == len(b["values"]) > 1:
                sign = 1 if better == "higher" else -1
                won = sum(1 for av, bv in zip(a["values"], b["values"])
                          if sign * bv > sign * av)
                wins = f"  B wins {won}/{len(a['values'])} pairs"
            lines.append(
                f"  {name:36} {fmt_stat(a):>34} {fmt_stat(b):>34} "
                f"{change:+7.1f}%  {v}{wins}")
    return lines, ok


# --- printing ---------------------------------------------------------------

def fmt_num(x):
    if x == 0 or not math.isfinite(x):
        return f"{x:g}"
    mag = abs(x)
    if mag >= 1e5:
        return f"{x:.4g}"
    if mag >= 100:
        return f"{x:.1f}"
    return f"{x:.4g}"


def fmt_stat(s):
    return f"{fmt_num(s['median'])} [{fmt_num(s['q1'])}, {fmt_num(s['q3'])}]"


def print_summary(summary, spec, names, title, skip=()):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w, metrics in summary.items():
        print(f"== {w} ({title})")
        for name in names + sorted(set(metrics) - set(names) - set(skip)):
            if name not in metrics:
                continue
            s = metrics[name]
            tag = "" if name in names else "  (reported)"
            print(f"  {name:36} {fmt_stat(s):>36} {units.get(name, s['unit'])}"
                  f"  n={s['n']}{tag}")


# --- modes ------------------------------------------------------------------

def single_run_mode(args, spec):
    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    trace = args.trace != "0"
    trace_out = (OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
                 if trace else None)
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          trace=trace, smoke=args.smoke, trace_out=trace_out)
    if trace_out:
        log(f"span file: {trace_out}")
    print(json.dumps(result_line(result, spec, trace)))
    return 0


def set_mode(args, spec):
    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = 1 if args.smoke else (args.seconds or spec["run_seconds"])
    runs_per = 1 if args.smoke else RUNS_PER_SET
    runs, trace_runs = [], []
    for i in range(runs_per):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            log(f"run {i + 1}/{runs_per}: {w}")
            runs.append(run_workload(binary, w, args.seed, seconds,
                                     smoke=args.smoke))
    if args.trace != "0":
        for w in workloads:
            out = OUT_DIR / f"trace-{w}-{args.seed}.json"
            log(f"traced run: {w}")
            trace_runs.append(run_workload(binary, w, args.seed, seconds,
                                           trace=True, smoke=args.smoke,
                                           trace_out=out))
    doc = {
        "schema": "pss.benchmark.results",
        "version": 1,
        "host": host_fingerprint(runs[0]),
        "seed": args.seed,
        "seconds": seconds,
        "runs_per_workload": runs_per,
        "smoke": args.smoke,
        "summary": summarize(runs),
        "trace_summary": summarize(trace_runs),
        "runs": runs,
        "trace_runs": trace_runs,
    }
    failures = check_results(runs, spec, trace_runs)
    doc["checks_ok"] = not failures
    doc["failures"] = failures
    e2e = [m["name"] for m in spec["end_to_end"]]
    print_summary(doc["summary"], spec, e2e, f"{runs_per} run(s)")
    if trace_runs:
        layers = [m["name"] for m in spec["per_layer"]]
        print_summary(doc["trace_summary"], spec, layers, "traced run",
                      skip=e2e)
        for run in trace_runs:
            print(f"span file ({run['workload']}): "
                  f"{run.get('info', {}).get('trace_file')}")
    out = Path(args.out) if args.out else OUT_DIR / f"results-{args.seed}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"results: {out}")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print("all output checks passed" if not failures else
          f"{len(failures)} output check(s) failed")
    return 0 if not failures else 1


def compare_mode(argv, spec):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--cross-host", action="store_true",
                   help="compare results recorded on different hosts")
    args = p.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise BenchError(f"cannot read {path}: {e}") from e
        if not {"host", "summary"} <= set(doc):
            raise BenchError(f"{path} is not a run.py results file")
        docs.append(doc)
    lines, ok = compare(docs[0], docs[1], spec, cross_host=args.cross_host)
    print("\n".join(lines))
    print("no end-to-end metric worse or unresolved" if ok else
          "some end-to-end metric is worse or unresolved")
    return 0 if ok else 1


def main(argv):
    try:
        spec = load_spec()
        if argv and argv[0] == "compare":
            return compare_mode(argv[1:], spec)
        p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        p.add_argument("--workload", help="run this one workload once")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--seconds", type=float, default=None,
                       help="measured seconds per run (default: "
                            "BENCHMARK.json run_seconds)")
        p.add_argument("--trace", nargs="?", const="1", default="0",
                       choices=["0", "1"],
                       help="per-layer metrics (full set: one extra traced "
                            "run per workload)")
        p.add_argument("--smoke", action="store_true",
                       help="tiny sizes, every check on, one run each")
        p.add_argument("--out", help="results file (full set)")
        args = p.parse_args(argv)
        if args.workload:
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            return single_run_mode(args, spec)
        return set_mode(args, spec)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
