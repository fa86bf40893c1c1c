#!/usr/bin/env python3
"""Build and run the layered benchmark from the root of a source checkout.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --self-test

The first form builds benchmark/ (and the repository libraries it links)
into .bench_build/, runs one workload and passes its output through: one
metadata line, then the result object as the last line. The second builds
and runs the benchmark's own tests and checks BENCHMARK.json against the
benchmark contract and against the metric names the program prints.
"""

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_DEADLINE_S = 175  # every run must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to benchmark/ (src/CMakeLists.txt missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def commit_id():
    """The git commit when the checkout has one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "benchmark"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()


def run_workload(argv):
    started = time.monotonic()
    binary = build("mcmm_benchmark")
    budget = RUN_DEADLINE_S - (time.monotonic() - started)
    # A first run that had to compile gets the same measuring time as any
    # other; only later runs are held to the per-run deadline.
    budget = max(budget, RUN_DEADLINE_S / 2)
    proc = subprocess.Popen([binary] + argv + ["--commit", commit_id()],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %.0f s" % budget)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray servers, if any
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    if set(result) != RESULT_KEYS:
        fail("result keys are %s" % sorted(result))
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_manifest(listed):
    """Checks BENCHMARK.json against the contract; returns a list of errors."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    errors = []
    if os.path.getsize(path) > 64 * 1024:
        errors.append("BENCHMARK.json is over 64 KiB")
    with open(path) as f:
        m = json.load(f)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(m) != keys:
        errors.append("top-level keys are %s" % sorted(m))
        return errors
    cmd = m["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be 1..32 strings of <= 200 characters")
    paths = m["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1..16 directories")
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append("bad path %r" % p)
        elif not os.path.isdir(os.path.join(ROOT, p)):
            errors.append("path %r is not a directory" % p)
    for c in cmd[1:]:
        if c.startswith("/") or ".." in c.split("/"):
            errors.append("command argument %r leaves the checkout" % c)
        elif os.path.exists(os.path.join(ROOT, c)) and not any(
                c == p or c.startswith(p.rstrip("/") + "/") for p in paths):
            errors.append("command names %r outside paths" % c)
    rs = m["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errors.append("run_seconds must be a whole number in 1..60")
    w = m["workloads"]
    if not (isinstance(w, list) and 2 <= len(w) <= 8):
        errors.append("workloads must number 2..8")
    seen = set()

    def name_ok(entry, what):
        n = entry.get("name")
        if not isinstance(n, str) or not NAME.match(n):
            errors.append("%s name %r breaks the name rule" % (what, n))
        elif n in seen:
            errors.append("name %r is used twice" % n)
        seen.add(n)

    for entry in w:
        if set(entry) != {"name", "why"}:
            errors.append("workload keys are %s" % sorted(entry))
            continue
        name_ok(entry, "workload")
        if entry["name"] not in listed["workloads"]:
            errors.append("workload %s is not one the program runs" % entry["name"])
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append("workload %s needs a one-line why of <= 200 characters"
                          % entry["name"])
    e2e, layers = m["end_to_end"], m["per_layer"]
    if not (isinstance(e2e, list) and 1 <= len(e2e) <= 16):
        errors.append("end_to_end must number 1..16")
    if not (isinstance(layers, list) and 1 <= len(layers) <= 128):
        errors.append("per_layer must number 1..128")
    for entry in e2e:
        if set(entry) != {"name", "unit", "better", "bound"}:
            errors.append("end_to_end keys are %s" % sorted(entry))
            continue
        b = entry["bound"]
        if not (isinstance(b, (int, float)) and 0 < b <= 0.25):
            errors.append("bound of %s must be in (0, 0.25]" % entry["name"])
    for entry in layers:
        if set(entry) != {"name", "unit", "better"}:
            errors.append("per_layer keys are %s" % sorted(entry))
    for entry in e2e + layers:
        if "name" not in entry:
            continue
        name_ok(entry, "metric")
        if not UNIT.match(str(entry.get("unit", ""))):
            errors.append("unit of %s breaks the unit rule" % entry["name"])
        if entry.get("better") not in ("lower", "higher"):
            errors.append("better of %s must be lower or higher" % entry["name"])
    setup = [e for e in e2e if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0].get("bound") != max(e.get("bound", 0) for e in e2e):
        errors.append("setup_s must have the largest bound")
    def spec(entries):
        return [{"name": e.get("name"), "unit": e.get("unit")} for e in entries]

    if spec(e2e) != listed["end_to_end"]:
        errors.append("end_to_end names or units differ from what the program prints")
    if spec(layers) != listed["per_layer"]:
        errors.append("per_layer names or units differ from what the program prints")
    runs = 4 + 22 * len(w)
    if isinstance(rs, int) and runs * (rs + 12) > 3420 - 600:
        errors.append("%d runs of %d s may not fit the time budget" % (runs, rs))
    return errors


def self_test():
    tests = build("mcmm_benchmark_tests")
    binary = build("mcmm_benchmark")
    rc = subprocess.run([tests]).returncode
    listed = json.loads(subprocess.run([binary, "--list-metrics"], capture_output=True,
                                       text=True, check=True).stdout)
    errors = check_manifest(listed)
    for e in errors:
        print("BENCHMARK.json: " + e, file=sys.stderr)
    if rc == 0 and not errors:
        print("self-test passed")
        return 0
    return 1


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        return self_test()
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main())
