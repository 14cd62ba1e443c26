#!/usr/bin/env python3
"""Repository benchmark: builds ctbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-cold --seed 20220627 \\
        --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Each
run also writes a stamped record (host, compiler, build type, git SHA and
dirty flag, source digest, every measured metric) under
.bench_build/records/.

Compare two sets of records (refused when their host or build stamps
differ; records of different code need --ab):

    python3 perfbench/run.py compare --a A1.json A2.json --b B1.json B2.json
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = ".bench_build"
BUILD = os.path.join(ROOT, BUILD_REL)
BINARY = os.path.join(BUILD, "ctbench")
WORKLOADS = ("paper-cold", "serve-mixed", "chaos-sweep", "paper-resume")
RUN_TIMEOUT_S = 170
# Stamp fields that must match before two records may be compared.
HOST_FIELDS = ("cpu", "nproc", "compiler", "build_type")
CODE_FIELDS = ("git_sha", "git_dirty", "source_digest")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds ctbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ctbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over the sources the benchmark builds (git-independent)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".") and d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git(*args):
    # Never let git look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        done = subprocess.run(["git", "--no-optional-locks", "-C", ROOT] +
                              list(args), capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if in_repo else None
    dirty = None
    if in_repo:
        status = git("status", "--porcelain")
        dirty = bool(status) if status is not None else None
    return {"cpu": cpu, "nproc": os.cpu_count(), "git_sha": sha or "none",
            "git_dirty": dirty, "source_digest": source_digest()}


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload " + repr(args.workload))
    build()
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)["paper_report_digest"]

    token = "run-%d-%d" % (os.getpid(), int(time.time() * 1000))
    tmp_rel = os.path.join(BUILD_REL, "tmp", token)
    os.makedirs(os.path.join(ROOT, tmp_rel))
    trace_rel = os.path.join(BUILD_REL, "traces",
                             "%s-%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.join(ROOT, os.path.dirname(trace_rel)), exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp_rel, "--golden", golden]
    if args.trace:
        command += ["--trace-out", trace_rel]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("ctbench exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(os.path.join(ROOT, tmp_rel), ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("ctbench exited %d without a result" % child.returncode)
    record = None
    for line in lines:
        if line.startswith("ctbench-record "):
            record = json.loads(line[len("ctbench-record "):])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        sys.stdout.write(out)
        fail("printed metrics do not match BENCHMARK.json")

    if record is not None:
        record.update(stamp())
        record["seconds"] = args.seconds
        record["result"] = result
        rec_dir = os.path.join(BUILD, "records")
        os.makedirs(rec_dir, exist_ok=True)
        name = "%s-seed%d-trace%d-%s.json" % (args.workload, args.seed,
                                              args.trace, token)
        with open(os.path.join(rec_dir, name), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        print("stamp: " + json.dumps({k: record.get(k) for k in
                                      HOST_FIELDS + CODE_FIELDS},
                                     sort_keys=True))
    # Everything ctbench printed, result object last.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    sys.exit(child.returncode)


def spread(values):
    """(median, IQR / median) with statistics.quantiles' quartiles."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def compare(args):
    sets = []
    for paths in (args.a, args.b):
        records = []
        for path in paths:
            with open(path) as f:
                records.append(json.load(f))
        sets.append(records)
    everything = sets[0] + sets[1]
    fields = HOST_FIELDS + (() if args.ab else CODE_FIELDS) + ("workload",
                                                               "trace")
    for field in fields:
        values = {json.dumps(r.get(field)) for r in everything}
        if len(values) > 1:
            fail("refusing to compare: records differ in %s: %s" %
                 (field, ", ".join(sorted(values))))
    names = sorted(set().union(*(r["metrics"].keys() for r in everything)))
    print("%-32s %14s %8s %14s %8s %9s" % ("metric", "median A", "IQR A",
                                          "median B", "IQR B", "B vs A"))
    for name in names:
        cols = []
        for records in sets:
            vals = [r["metrics"][name]["value"] for r in records
                    if name in r["metrics"]]
            cols.append(spread(vals) if vals else (0.0, 0.0))
        (ma, sa), (mb, sb) = cols
        delta = (mb - ma) / abs(ma) if ma else 0.0
        print("%-32s %14.6g %7.1f%% %14.6g %7.1f%% %+8.1f%%" %
              (name, ma, sa * 100, mb, sb * 100, delta * 100))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--a", nargs="+", required=True)
        parser.add_argument("--b", nargs="+", required=True)
        parser.add_argument("--ab", action="store_true",
                            help="records come from different code")
        compare(parser.parse_args(sys.argv[2:]))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20220627)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
