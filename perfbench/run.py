#!/usr/bin/env python3
"""Build the synthesis benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus-search --seed 1 --seconds 20 --trace 0

The Go toolchain's caches and the binary go under .bench_build/ in the
current directory, so nothing outside it is written. The benchmark's
own output passes through unchanged: its last standard-output line is
the JSON result. A build failure exits non-zero without printing one.
"""
import os
import signal
import subprocess
import sys

# A run must end within this many seconds; the build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    state = os.path.join(build, "perfbench")
    for d in ("gocache", "gomod", "gotmp", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    os.makedirs(state, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
    })
    binary = os.path.join(state, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Dist workers listen on a unix socket under TMPDIR; a relative path
    # keeps the socket path short whatever the checkout's location.
    env["TMPDIR"] = os.path.relpath(os.path.join(build, "tmp"), root)
    args = [binary, "-repo", root, "-state", state, "-commit", commit(root)] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s; stopping it", file=sys.stderr)
        return 3
    finally:
        # The benchmark closes its worker processes itself; this only
        # matters when it was interrupted.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def commit(root):
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
