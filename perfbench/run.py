#!/usr/bin/env python3
"""Runs one benchmark workload: builds the benchmark against the sources of
the checkout it sits in (once per source change), then runs it on one JVM.

    python3 perfbench/run.py --workload climate-build --seed 1 --seconds 10 --trace 0

The last line of standard output is the result JSON. Build products go to
.bench_build/ and perfbench/target/ in the checkout; Spark's scratch space
goes to .bench_build/.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
# Everything the benchmark classpath is compiled from.
SOURCES = [ROOT / "build.sbt", ROOT / "project" / "build.properties", ROOT / "src" / "main",
           ROOT / "jobs", HERE / "build.sbt", HERE / "project" / "build.properties",
           HERE / "src" / "main"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# A fixed heap and young generation: left to G1, they are sized anew in each
# JVM, which widens the spread of query latencies between runs.
HEAP = ["-Xmx3g", "-Xms3g", "-Xmn1g"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_sha():
    h = hashlib.sha256()
    for base in SOURCES:
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else \
            [base] if base.is_file() else []
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def launcher(sha):
    """Classpath and JVM options, rebuilt when a source changed."""
    out = HERE / "target" / "launcher.txt"
    stamp = BUILD_DIR / "perfbench.stamp"
    if not (out.is_file() and stamp.is_file() and stamp.read_text() == sha):
        env = dict(os.environ, COURSIER_MODE="offline")
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
        try:
            res = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "launcher"], cwd=HERE,
                                 env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build did not finish: {e}")
        if res.returncode != 0 or not out.is_file():
            fail(f"build failed with exit code {res.returncode}")
        stamp.write_text(sha)
    lines = out.read_text().splitlines()
    return lines[0], lines[1:]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True)
    a = ap.parse_args()
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no repository sources next to the benchmark in {ROOT}")
    BUILD_DIR.mkdir(exist_ok=True)
    sha = source_sha()
    classpath, jvm_opts = launcher(sha)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = ["java", *HEAP, *jvm_opts, f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           "-Dspark.driver.host=127.0.0.1", f"-Dperfbench.gitSha={git_sha()}",
           f"-Dperfbench.sourceSha={sha}", "-cp", classpath, "perfbench.Main",
           "--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds, "--trace", a.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
