#!/usr/bin/env python3
"""Multi-run modes of the NEC serving benchmark; run it through run.sh.

  run.sh [--seed N]                          all workloads, untraced
  run.sh --trace [--seed N]                  untraced + traced run per workload,
                                             per-layer tables, trace_overhead_pct
  run.sh --repeat N [--seed-base B] [--out FILE]
                                             N seeds per workload: median,
                                             quartiles, spread vs bound
  run.sh --compare A.json B.json             do two --repeat files agree?
  run.sh --smoke                             ~3 s per workload; names must match
                                             BENCHMARK.json
  run.sh --self-test                         corrupted reference; exits non-zero

Every mode but --smoke and --self-test measures each workload for
run_seconds of BENCHMARK.json. Single runs (--workload ...) go straight to
nec_bench.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs nec_bench once; returns (exit code, result line dict or None,
    report text)."""
    cmd = [os.environ["NEC_BENCH_BIN"], "--necd", os.environ["NEC_BENCH_NECD"],
           "--out", os.environ["NEC_BENCH_OUT"], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1] if lines else []), flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, "\n".join(lines[:-1])


def side_report(workload, seed, trace):
    path = os.path.join(os.environ["NEC_BENCH_OUT"],
                        f"report-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path) as f:
        return json.load(f)


def bounds(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values[0], values[0], values[0])
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "range_share": (max(values) - min(values)) / med if med else 0.0}


def cmd_all(args, spec):
    failed = []
    for w in [w["name"] for w in spec["workloads"]]:
        code, result, _ = run_one(w, args.seed, spec["run_seconds"], trace=False)
        if code != 0 or not result or not result["correct"]:
            failed.append(w)
    print(f"workloads failed: {', '.join(failed)}" if failed else
          "all workloads correct")
    return 1 if failed else 0


def cmd_trace(args, spec):
    failed, rows = [], []
    for w in [w["name"] for w in spec["workloads"]]:
        code_u, _, _ = run_one(w, args.seed, spec["run_seconds"], trace=False,
                               echo=False)
        code_t, result, _ = run_one(w, args.seed, spec["run_seconds"], trace=True)
        if code_u != 0 or code_t != 0 or not result or not result["correct"]:
            failed.append(w)
            continue
        untraced = side_report(w, args.seed, False)["end_to_end"]["e2e_p50_ms"]
        traced = side_report(w, args.seed, True)["end_to_end"]["e2e_p50_ms"]
        rows.append((w, untraced["value"], traced["value"]))
    print("trace_overhead_pct (traced vs untraced e2e_p50_ms, same seed):")
    for w, u, t in rows:
        print(f"  {w:8s} {100.0 * (t - u) / u:+7.2f} %  ({u:.2f} -> {t:.2f} ms)")
    print(f"traces in {os.environ['NEC_BENCH_OUT']}")
    if failed:
        print(f"workloads failed: {', '.join(failed)}")
    return 1 if failed else 0


def cmd_repeat(args, spec):
    metric_bounds = bounds(spec)
    out = {"nproc": os.cpu_count(), "seconds": spec["run_seconds"],
           "seeds": list(range(args.seed_base, args.seed_base + args.repeat)),
           "workloads": {}}
    failed = False
    for w in [w["name"] for w in spec["workloads"]]:
        values = {}
        started = time.time()
        for seed in out["seeds"]:
            code, result, text = run_one(w, seed, spec["run_seconds"],
                                         trace=False, echo=False)
            if code != 0 or not result or not result["correct"]:
                why = [l for l in text.splitlines()
                       if l.startswith(("INVALID", "errors", "verify"))]
                print(f"{w} seed {seed}: FAILED (exit {code}) {' | '.join(why)}",
                      flush=True)
                failed = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        per_run = (time.time() - started) / max(1, len(out["seeds"]))
        out["workloads"][w] = {n: summarize(v) for n, v in values.items()}
        print(f"\n{w}: {len(out['seeds'])} seeds, {per_run:.1f} s per run")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        for name in sorted(values):
            s = out["workloads"][w][name]
            bound = metric_bounds.get(name, {}).get("bound", float("nan"))
            flag = "" if name == "setup_s" or s["iqr_share"] < bound / 3 else \
                "  <- iqr above bound/3"
            print(f"  {name:22s} {s['median']:12.4f} {s['q1']:12.4f} "
                  f"{s['q3']:12.4f} {s['iqr_share']:8.3f} "
                  f"{s['range_share']:9.3f} {bound:6.2f}{flag}", flush=True)
    path = args.out or os.path.join(os.environ["NEC_BENCH_OUT"], "repeat.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"\nwrote {path}")
    return 1 if failed else 0


def cmd_compare(args, spec):
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    metric_bounds = bounds(spec)
    disagree = 0
    print(f"{'workload':8s} {'metric':22s} {'median A':>12s} {'median B':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        for name in sorted(set(a["workloads"][w]) & set(b["workloads"][w])):
            ma = a["workloads"][w][name]["median"]
            mb = b["workloads"][w][name]["median"]
            diff = (mb - ma) / ma if ma else 0.0
            bound = metric_bounds[name]["bound"]
            ok = abs(diff) < bound
            disagree += not ok
            print(f"{w:8s} {name:22s} {ma:12.4f} {mb:12.4f} {diff:+8.3f} "
                  f"{bound:6.2f} {'agree' if ok else 'DISAGREE'}")
    print("all medians agree within their bounds" if disagree == 0 else
          f"{disagree} median(s) outside their bounds")
    return 1 if disagree else 0


def cmd_smoke(args, spec):
    started = time.time()
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        code, result, _ = run_one(w, args.seed, 3, trace=True,
                                  extra=["--smoke"], echo=False)
        if code != 0 or not result or not result["correct"]:
            problems.append(f"{w}: run failed (exit {code})")
            continue
        e2e = set(side_report(w, args.seed, True)["end_to_end"])
        layer = set(result["metrics"])
        if e2e != declared_e2e:
            problems.append(f"{w}: end-to-end names differ: "
                            f"{sorted(e2e ^ declared_e2e)}")
        if layer != declared_layer:
            problems.append(f"{w}: per-layer names differ: "
                            f"{sorted(layer ^ declared_layer)}")
        print(f"smoke {w}: ok ({len(e2e)} end-to-end, {len(layer)} per-layer "
              f"metrics)", flush=True)
    print(f"smoke: {time.time() - started:.1f} s")
    for p in problems:
        print(f"smoke FAILED: {p}")
    return 1 if problems else 0


def cmd_self_test(args, spec):
    code, result, _ = run_one("fleet", args.seed, 3, trace=False,
                           extra=["--smoke", "--self-test"])
    caught = code != 0 and result is not None and not result["correct"]
    print("self-test: corrupted reference " +
          ("detected" if caught else "NOT detected"))
    return 1 if caught else 0


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--repeat", type=int)
    mode.add_argument("--compare", nargs=2, metavar="FILE")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--out", help="where --repeat writes its JSON")
    args = p.parse_args()
    if args.trace:
        return cmd_trace(args, spec)
    if args.repeat:
        return cmd_repeat(args, spec)
    if args.compare:
        return cmd_compare(args, spec)
    if args.smoke:
        return cmd_smoke(args, spec)
    if args.self_test:
        return cmd_self_test(args, spec)
    return cmd_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
