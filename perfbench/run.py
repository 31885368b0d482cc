#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <offline_lattice|stream_live|stream_features|all> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It builds offline into
$CARGO_TARGET_DIR (default: .bench_build), runs there, and keeps its
scratch files (the packed model bundle, span dumps) under
.bench_build/perfbench. The last line of standard output is the result
as one JSON object; build output goes to standard error. The exit code is
non-zero, with no result printed, when the build or the run fails.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
RUN_TIMEOUT_S = 175


def source_id():
    """The commit when run from a git checkout, else a hash of the sources."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "perfbench/src/*.rs"):
        for path in sorted(ROOT.glob(pattern)):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = source_id()
    env["PERFBENCH_RUSTC"] = rustc_version()
    work_dir = ROOT / ".bench_build" / "perfbench"
    cmd = [str(target / "release" / "unfold-perfbench"), *sys.argv[1:], "--work-dir", str(work_dir)]
    # Its own process group, so that a run that overstays takes the
    # untraced child process of a traced run down with it.
    run = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
