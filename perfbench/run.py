#!/usr/bin/env python3
"""Builds and runs the rispp repository benchmark (perfbench).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is the JSON result;
      the full record (with its run manifest) is saved under
      <build>/results/. --trace 0 reports the end-to-end metrics, --trace 1
      the per-layer ledger.
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced then traced.
  python3 perfbench/run.py --self-test
      Transparency of the traced run, metric names/units against
      BENCHMARK.json and layers.json, and exact repeatability of the
      deterministic metrics and work counters.
  python3 perfbench/run.py --compare A.json B.json
      Compares two saved results; refuses when their workload definition,
      frames, seed, threads, run length or trace mode differ, and fails
      when a gated work counter or deterministic metric moved.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
every file a run writes stays under that directory.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["h264_sweep", "fleet_shared", "fleet_contended", "dse_search"]
# Work counters that must repeat exactly between traced runs of the same code,
# workload and seed (recorded from the one-thread traced passes).
GATED_COUNTERS = ["sched.candidates_evaluated", "rtm.memo_misses", "port.loads_started",
                  "sim.hot_spot_entries", "dse.replays", "arbiter.grants"]
# Simulated results: a function of the code and the inputs only.
DETERMINISTIC = {0: ["sim_speedup"], 1: ["cosim.sim_cycles_p99", "trace.runs",
                                          "trace.executions", "dse.abandoned"]}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def default_threads():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"rispp sources not found at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(default_threads())
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(step)}", 1)
    return out / "perfbench"


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if proc.returncode != 0:
        return "unknown", None
    described = proc.stdout.strip()
    return described.removesuffix("-dirty"), described.endswith("-dirty")


def parse_output(stdout):
    """Splits the binary's stdout into manifest, detail lines and result."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    manifest, details = {}, {}
    for line in lines[:-1]:
        if line.startswith("manifest "):
            manifest = json.loads(line[len("manifest "):])
            continue
        parts = line.split()
        if len(parts) == 3:
            try:
                details[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
            except ValueError:
                pass
    return manifest, details, result


def run_workload(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the saved record. Exits on failure."""
    out = build_dir()
    scratch = out / "scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISPP_")}
    env["RISPP_THREADS"] = str(default_threads())  # the binary's only thread-count source
    env["TMPDIR"] = str(scratch)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}", 1)
    try:
        manifest, details, result = parse_output(proc.stdout)
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} printed no valid result: {e}", 1)

    described, dirty = git_describe()
    frames = re.search(r"frames=(\S+)", manifest.get("definition", ""))
    manifest.update({
        "git_describe": described,
        "dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "frames": frames.group(1) if frames else None,
        "rispp_env": {k: v for k, v in sorted(env.items()) if k.startswith("RISPP_")},
    })
    record = {"manifest": manifest, "details": details, "result": result}
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    if echo:
        for line in proc.stdout.strip().splitlines()[:-1]:
            print(line)
        print(f"record {path}")
        print(json.dumps(result), flush=True)
    return record


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("workload", "definition", "seed", "threads", "trace", "frames", "seconds"):
        if a["manifest"].get(key) != b["manifest"].get(key):
            print(f"refusing to compare: {key} differs "
                  f"({a['manifest'].get(key)!r} vs {b['manifest'].get(key)!r})")
            return 3
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    trace = a["manifest"]["trace"]
    gated = set(DETERMINISTIC[trace]) | (set(GATED_COUNTERS) if trace else set())
    code = 0
    for name in sorted(set(ma) | set(mb)):
        va, vb = ma.get(name, {}).get("value"), mb.get(name, {}).get("value")
        if va is None or vb is None:
            print(f"{name:34s} missing in one result")
            code = 4
            continue
        delta = "" if va == 0 else f"{100.0 * (vb - va) / va:+8.2f}%"
        flag = ""
        if name in gated and va != vb:
            flag = "  MISMATCH (gated exactly)"
            code = 4
        print(f"{name:34s} {va:16.6g} {vb:16.6g} {delta}{flag}")
    return code


def check_emitted(bench, record, trace):
    """Problems with a result's metric names, units and values."""
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    result = record["result"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ: missing {missing} extra {extra} unit {units}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if not trace:
        zeros = [n for n, m in result["metrics"].items() if m["value"] == 0]
        if zeros:
            problems.append(f"zero end-to-end metrics {zeros}")
    return problems


def self_test(binary):
    problems = []
    proc = subprocess.run([str(binary), "--self-test"], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    print(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        problems.append("transparency self-test failed")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    ledger = {m for layer in layers["layers"] for m in layer["metrics"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    if ledger != per_layer:
        problems.append(f"layers.json vs BENCHMARK.json per_layer: only in layers.json "
                        f"{sorted(ledger - per_layer)}, only in BENCHMARK.json "
                        f"{sorted(per_layer - ledger)}")
    names = [w["name"] for w in bench["workloads"]]
    if names != WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    e2e = {m["name"] for m in bench["end_to_end"]}
    for layer in layers["layers"]:
        for move in layer["moves"]:
            if move["workload"] not in WORKLOADS or move["metric"] not in e2e:
                problems.append(f"layers.json: bad mapping {move}")

    for workload in WORKLOADS:
        for trace in (0, 1):
            runs = [run_workload(binary, workload, 1, 1, trace, echo=False)
                    for _ in range(2)]
            for record in runs:
                problems += [f"{workload} trace={trace}: {p}"
                             for p in check_emitted(bench, record, trace)]
            repeat = DETERMINISTIC[trace] + (GATED_COUNTERS if trace else [])
            a, b = (r["result"]["metrics"] for r in runs)
            for name in repeat:
                if a[name]["value"] != b[name]["value"]:
                    problems.append(f"{workload} trace={trace}: {name} not repeatable "
                                    f"({a[name]['value']} vs {b[name]['value']})")
            print(f"self-test {workload} trace={trace}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not (args.all or args.self_test or args.workload):
        parser.error("one of --workload, --all, --self-test or --compare is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.all:
        for workload in WORKLOADS:
            for trace in (0, 1):
                print(f"== {workload} trace={trace}", flush=True)
                run_workload(binary, workload, args.seed, args.seconds, trace)
        return 0
    run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
