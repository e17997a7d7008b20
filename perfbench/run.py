#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--quick]

Builds two release binaries from source — the `perfbench` harness (its
own Cargo package in this directory) and the repository's
`geoplace-serve` — into `$CARGO_TARGET_DIR` (default `.bench_build` at
the repository root), then runs the harness with the given arguments.
Build output goes to stderr; the harness prints every metric and, as
the last stdout line, one JSON object. The exit code is the harness's,
or 1 when a build fails (no result line is printed then).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(*args):
    """Runs one quiet offline release build; exits 1 if it fails."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        print(f"error: cargo build {' '.join(args)} failed", file=sys.stderr)
        sys.exit(1)


def revision():
    """The git commit, or a hash of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src", "perfbench/Cargo.toml"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cargo("--manifest-path", os.path.join(HERE, "Cargo.toml"))
    cargo("-p", "geoplace_bench", "--bin", "geoplace-serve")
    args = sys.argv[1:]
    extra = {
        "--serve-bin": os.path.join(target, "release", "geoplace-serve"),
        "--out": os.path.join(HERE, "out"),
        "--revision": revision(),
    }
    for flag, value in extra.items():
        if flag not in args:
            args += [flag, value]
    done = subprocess.run([os.path.join(target, "release", "perfbench"), *args], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
