#!/usr/bin/env python3
"""Macro benchmark of the multinet library.

Builds perfbench/mn_perfbench (Release, from ../src) and runs one
workload in its own process:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
(Chrome-trace JSON and a self-time table per layer are written under
the build directory's traces/).  The line before it is the run's record:
effective cores, compiler, build type, commit and a digest of the
sources.  The exit code is 0 only when every check passed.

Other modes:
    --all                 run every workload once and print the headline
                          metrics by name with units; non-zero on any failure
    --steadiness N        run each workload N times on seeds seed..seed+N-1
                          and print median, quartiles and spread per
                          end-to-end metric against its bound
    --record-goldens      rewrite goldens.json for the default and the
                          held-out seed

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root.  mn_perfbench removes MN_THREADS, MN_RUN_SCALE,
MN_SCALAR_DISPATCH, MN_BENCH_REPS, MN_BENCH_JSON and MN_WORLD_USERS from
its environment, so a stray variable cannot change a workload.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
RUN_TIMEOUT_S = 170

# The headline names of the end-to-end measurements, printed by --all:
# (name, metric the binary reports, scale, unit); {q} is the percentile
# call_host_ms.tail stands for in that run.  Every workload also reports
# the shared ones.
SHARED_NAMED = (
    ("setup_s", "setup_s", 1, "s"),
    ("sim_events_per_s", "sim_events_per_s", 1, "1/s"),
    ("peak_rss_mib", "peak_rss_mib", 1, "MiB"),
    ("failed_frac", "failed_frac", 1, "fraction"),
)
NAMED = {
    "bulk": (("flows_per_s", "items_per_s", 1, "1/s"),
             ("flow_host_us.p50", "call_host_ms.p50", 1e3, "us"),
             ("flow_host_us.{q}", "call_host_ms.tail", 1e3, "us")),
    "replay": (("replays_per_s", "items_per_s", 1, "1/s"),
               ("replay_host_ms.p50", "call_host_ms.p50", 1, "ms"),
               ("replay_host_ms.{q}", "call_host_ms.tail", 1, "ms")),
    "world": (("users_per_s", "items_per_s", 1, "1/s"),),
    "campaign_cold": (("runs_per_s.cold", "items_per_s", 1, "1/s"),),
    "campaign_warm": (("runs_per_s.warm", "items_per_s", 1, "1/s"),),
}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {what} {path}: {e}")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then (re)build mn_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no library sources at " + os.path.join(ROOT, "src") + "; run from a checkout")
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "mn_perfbench"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {' '.join(cmd)} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            die(f"build step {' '.join(cmd)} exited {p.returncode}")
    return os.path.join(out, "mn_perfbench")


def run_binary(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", os.path.join(build_dir(), "work"),
           "--trace-out", os.path.join(build_dir(), "traces")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die(f"{workload} exited {p.returncode}", 1)
    lines = p.stdout.strip().splitlines()
    if not lines:
        die(f"{workload} printed no result", 1)
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the library and benchmark sources: names the code even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def verify(res, goldens):
    """Problems with one binary result: its own checks, the golden of the
    default seed (re-run by every run), the golden of --seed if recorded,
    and the heap-fallback floor."""
    w = res["workload"]
    problems = list(res["problems"])
    want = goldens.get("reference", {}).get(w)
    if want != res["reference_digest"]:
        problems.append(f"default-seed digest {res['reference_digest']} != golden {want}")
    want = goldens.get("digests", {}).get(w, {}).get(str(res["seed"]))
    if want is not None and want != res["digest"]:
        problems.append(f"seed {res['seed']} digest {res['digest']} != golden {want}")
    if res["record"]["heap_fallbacks"] != 0:
        problems.append(f"{res['record']['heap_fallbacks']} inplace_function heap fallbacks")
    return problems


def contract(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), "benchmark spec")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    exe = build()
    res = run_binary(exe, args.workload, args.seed, args.seconds, args.trace)
    problems = verify(res, load_json(GOLDENS, "goldens"))
    metrics = res["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in listed})
    if missing or extra:
        die(f"metrics disagree with BENCHMARK.json: missing {missing}, unlisted {extra}")
    record = dict(res["record"], commit=commit(), source_digest=source_digest(),
                  workload=args.workload, seed=args.seed, trace=args.trace,
                  digest=res["digest"], passes=res["passes"], calls=res["calls"])
    for p in problems:
        print("FAIL " + p)
    print("record " + json.dumps(record, sort_keys=True))
    out = {
        "correct": not problems,
        "attempted": res["attempted"],
        # A wrong digest taints every operation of the run.
        "failed": res["failed"] if not problems else res["attempted"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(dict(out, record=record, extra=res["extra"], pass_s=res["pass_s"],
                       pass_scale=res["pass_scale"]), f, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0 if not problems else 1


def report_all(args):
    """One run of every workload: the headline metrics by name."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), "benchmark spec")
    goldens = load_json(GOLDENS, "goldens")
    exe = build()
    bad = 0
    for w in (x["name"] for x in spec["workloads"]):
        res = run_binary(exe, w, args.seed, args.seconds, 0)
        problems = verify(res, goldens)
        bad += bool(problems)
        print(f"== {w} (seed {args.seed}, {res['passes']} passes, {res['calls']} calls, "
              f"effective cores {res['record']['effective_cores']:.2f}): "
              f"{'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
        values = dict(res["metrics"], **res["extra"])
        values["failed_frac"] = 1.0 - values["completed_frac"]
        q = f"p{round(100 * values['tail_quantile'])}"
        for name, source, scale, unit in SHARED_NAMED + NAMED[w]:
            print(f"  {name.format(q=q):22s} {values[source] * scale:>16.6g} {unit}")
    return 1 if bad else 0


def steadiness(args):
    """Spread of every end-to-end metric over N seeds, against its bound."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), "benchmark spec")
    goldens = load_json(GOLDENS, "goldens")
    exe = build()
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    flagged = 0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.steadiness):
            res = run_binary(exe, w, args.seed + i, args.seconds, 0)
            problems = verify(res, goldens)
            if problems:
                print(f"{w} seed {args.seed + i}: FAIL {'; '.join(problems)}")
                flagged += 1
            for name in values:
                values[name].append(res["metrics"][name])
        print(f"== {w}: {args.steadiness} runs, seeds {args.seed}..{args.seed + args.steadiness - 1}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            mark = "OVER BOUND" if spread > m["bound"] else (
                "over 1/3 bound" if spread > m["bound"] / 3 else "ok")
            if spread > m["bound"] and m["name"] != "setup_s":
                flagged += 1
            print(f"  {m['name']:18s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.2%} bound {m['bound']:.0%}  {mark}")
    return 1 if flagged else 0


def record_goldens(args):
    goldens = load_json(GOLDENS, "goldens") if os.path.exists(GOLDENS) else {}
    default_seed = goldens.get("default_seed", 1)
    held_out = goldens.get("held_out_seed", 424242)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), "benchmark spec")
    exe = build()
    out = {"default_seed": default_seed, "held_out_seed": held_out, "digests": {},
           "reference": {}}
    for w in (x["name"] for x in spec["workloads"]):
        out["digests"][w] = {}
        for seed in (default_seed, held_out):
            res = run_binary(exe, w, seed, 1, 0)
            if res["problems"]:
                die(f"{w} seed {seed}: {res['problems']}", 1)
            out["digests"][w][str(seed)] = res["digest"]
            out["reference"][w] = res["reference_digest"]
        print(f"{w}: {out['digests'][w]} reference {out['reference'][w]}")
    with open(GOLDENS, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--steadiness", type=int, metavar="N")
    mode.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")
    if args.all:
        return report_all(args)
    if args.steadiness:
        return steadiness(args)
    if args.record_goldens:
        return record_goldens(args)
    if not args.workload:
        die("--workload is required")
    return contract(args)


if __name__ == "__main__":
    sys.exit(main())
