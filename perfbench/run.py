#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload build|fault|service --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. With --trace 1, the
per-layer metrics of BENCHMARK.json that the workload does not exercise are
added with value 0. Exit code 2 (and no result) when the engine sources are
missing or the build fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
ORACLE = os.path.join(HERE, "oracle.txt")
OUT_DIR = ".bench_out"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure + build perfbench; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "bdd_manager.hpp")):
        fail("engine sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(cmd))
    if not os.path.isfile(binary):
        fail("build produced no binary at " + binary)
    return binary


def run_perfbench(binary, args, cpus=None):
    """Run perfbench from the repository root, on `cpus` if given; return
    (code, stdout)."""
    def pin():
        os.sched_setaffinity(0, cpus)
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=175,
                          preexec_fn=pin if cpus else None)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def fill_per_layer(result, spec):
    """Add every per-layer metric of `spec` missing from `result` as 0."""
    for m in spec["per_layer"]:
        result["metrics"].setdefault(m["name"],
                                     {"value": 0, "unit": m["unit"]})


# ---- Self-tests ------------------------------------------------------------


def check(cond, message, failures):
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        failures.append(message)


def self_test(binary):
    """Tiny inputs: metric coverage, oracle sensitivity, span arithmetic."""
    with open(SPEC) as f:
        spec = json.load(f)
    failures = []
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    base = ["--seed", "7", "--seconds", "1", "--tiny"]
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {}

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_perfbench(
                binary, ["--workload", name, "--trace", trace] + base)
            result = last_json(out)
            check(code == 0 and result is not None and result["correct"],
                  f"{name} trace={trace}: exit 0 and correct", failures)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys", failures)
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name} trace={trace}: attempted >= 1, failed == 0",
                  failures)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if key == "end_to_end":
                want = {m["name"]: m["unit"] for m in spec[key]}
                check(got == want,
                      f"{name}: every end_to_end metric with its unit",
                      failures)
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{name}: end-to-end metrics are nonzero", failures)
            else:
                check(all(layer_units.get(k) == u for k, u in got.items()),
                      f"{name}: per-layer metrics are named in BENCHMARK.json "
                      "with their units", failures)
                emitted.update(got)
                check_spans(name, result, failures)
    missing = sorted(set(layer_units) - set(emitted))
    check(not missing, "every per_layer metric is measured by some workload"
          + (": missing " + ", ".join(missing) if missing else ""), failures)

    # A wrong recorded value must fail the run.
    with open(ORACLE) as f:
        recorded = f.read().splitlines()
    bad = []
    for line in recorded:
        fields = line.split()
        if len(fields) == 2 and not line.startswith("#"):
            value = fields[1]
            flipped = ("1" if value[-1] != "1" else "2")
            line = fields[0] + " " + value[:-1] + flipped
        bad.append(line)
    bad_path = os.path.join(OUT_DIR, "oracle-wrong.txt")
    with open(os.path.join(ROOT, bad_path), "w") as f:
        f.write("\n".join(bad) + "\n")
    for name in ("build", "fault"):
        code, out = run_perfbench(binary, ["--workload", name, "--trace", "0",
                                        "--oracle", bad_path] + base)
        result = last_json(out)
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{name}: a wrong recorded value fails the run", failures)

    # 4 workers on one CPU is not a 4-worker result: the host guard fails it.
    one_cpu = {min(os.sched_getaffinity(0))}
    for w in spec["workloads"]:
        name = w["name"]
        code, out = run_perfbench(
            binary, ["--workload", name, "--trace", "0"] + base, one_cpu)
        result = last_json(out)
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] > 0 and "usable CPUs, need" in out,
              f"{name}: pinned to one CPU, the host guard fails the run",
              failures)

    print("self-test: " + ("PASS" if not failures else
                           f"{len(failures)} FAILED"))
    return 0 if not failures else 1


def check_spans(workload, result, failures):
    """Self time >= 0; self + children == parent; layers sum to roots."""
    path = os.path.join(ROOT, OUT_DIR, f"spans-{workload}.tsv")
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [dict(zip(header, l.rstrip("\n").split("\t"))) for l in f]
    spans = {r["id"]: r for r in rows}
    dur = {i: int(r["end_ns"]) - int(r["start_ns"]) for i, r in spans.items()}
    children = {i: 0 for i in spans}
    inside = True
    for i, r in spans.items():
        p = r["parent"]
        if p != "0":
            children[p] += dur[i]
            inside &= (int(r["start_ns"]) >= int(spans[p]["start_ns"]) and
                       int(r["end_ns"]) <= int(spans[p]["end_ns"]))
    self_ns = {i: dur[i] - children[i] for i in spans}
    check(len(spans) > 0, f"{workload}: spans recorded", failures)
    check(all(v >= 0 for v in self_ns.values()),
          f"{workload}: span self times are non-negative", failures)
    check(inside, f"{workload}: child spans lie inside their parents",
          failures)
    check(all(self_ns[i] + children[i] == dur[i] for i in spans),
          f"{workload}: self time plus children equals each parent",
          failures)
    # The reported per-layer self times add up to the root spans' time.
    runs = len({r["run"] for r in rows})
    roots_s = sum(dur[i] for i, r in spans.items() if r["parent"] == "0")
    roots_s = roots_s / 1e9 / max(runs, 1)
    layers_s = sum(v["value"] for k, v in result["metrics"].items()
                   if k.startswith("span.") and k.endswith("_self_s"))
    check(abs(layers_s - roots_s) <= 1e-6 * max(1.0, roots_s),
          f"{workload}: per-layer self times sum to the root spans",
          failures)


def main(argv):
    if argv == ["--self-test"]:
        return self_test(build())
    if not argv or argv[0] == "--help":
        print(__doc__)
        return 2
    binary = build()
    proc = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=175)
    lines = proc.stdout.splitlines()
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    if traced and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        with open(SPEC) as f:
            fill_per_layer(result, json.load(f))
        lines[-1] = json.dumps(result)
    sys.stdout.write("".join(l + "\n" for l in lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
