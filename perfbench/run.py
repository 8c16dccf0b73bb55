#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serial-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all            # every gated workload, end-to-end metrics
    python3 perfbench/run.py --selftest       # each correctness check vs a corrupted state

The benchmark binary is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is the run's JSON result; build output goes to stderr.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures and builds ytbench (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "ytbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, args):
    """Runs ytbench, echoes its output, returns (exit code, last line)."""
    proc = subprocess.Popen([binary] + args, cwd=os.getcwd(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # A call that never returned (a runaway chase or a hung barrier):
        # end the whole process group and report the run as failed.
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stdout.write(out)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}), flush=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def run_one(binary, workload, seed, seconds, trace):
    trace_out = os.path.join(build_dir(), f"trace-{workload}.json")
    code, last = run_binary(binary, [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--trace-out", trace_out,
        "--source", source_id()])
    if code != 0:
        fail(f"ytbench exited with code {code}", code)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload of BENCHMARK.json")
    parser.add_argument("--selftest", action="store_true",
                        help="feed every correctness check a corrupted state")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        code, _ = run_binary(binary, ["--selftest"])
        sys.exit(code)
    if args.all:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        ok = True
        for w in workloads:
            print(f"=== {w} ===", flush=True)
            ok &= run_one(binary, w, args.seed, args.seconds, args.trace)["correct"]
        sys.exit(0 if ok else 1)
    if not args.workload:
        fail("--workload, --all or --selftest is required", 2)
    run_one(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
