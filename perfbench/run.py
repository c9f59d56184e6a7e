#!/usr/bin/env python3
"""Build and run the SPFail paper-scale benchmark.

    python3 perfbench/run.py --workload <paper_scale|provider_stream|faulty_resume> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own, depending on the repository's crates by path) in release mode,
offline, into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
benchmark binary with the same arguments. The binary's last stdout line
is the JSON result; build output and progress go to stderr. Exits
non-zero without a result when the build or the run fails.

The binary runs with glibc's malloc told to keep the memory it frees
(no mmap'd chunks, no trimming), so that after the warm-up iteration the
timed iterations reuse the same pages instead of faulting fresh ones in.
The cost of a page fault depends on the host's memory load, not on the
program, and it otherwise dominates the spread between runs of the
allocation-heavy stages (world synthesis, checkpoints, exhibits).
`peak_heap_mib` counts allocator requests, so it is unaffected.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

MALLOC_TUNABLES = ":".join(
    [
        "glibc.malloc.mmap_max=0",
        "glibc.malloc.trim_threshold=68719476736",
        "glibc.malloc.top_pad=67108864",
    ]
)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "spfail-perfbench")
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
