"""Record the golden outputs the benchmark's gate compares against.

Usage (from the repository root): python3 perfbench/make_goldens.py

Run it only on a new platform (the trace bytes depend on the platform's
libm), and only from a commit whose outputs are known good: the paper-*
trace hashes must then match the ones listed in ROADMAP.md.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, "src")
sys.path.insert(0, ".")

from perfbench.workloads import (  # noqa: E402
    GOLDENS_PATH, SWEEP_ARGV, quiet_main, sha256_file, simulate_argv)


def main() -> None:
    goldens = {"simulate": {}}
    with tempfile.TemporaryDirectory(dir=".") as workdir:
        for preset in ("paper-explicit", "paper-implicit"):
            argv = simulate_argv(preset, workdir)
            rc, _ = quiet_main(argv)
            if rc != 0:
                raise SystemExit(f"{preset}: exit code {rc}")
            with open(argv[6]) as f:
                summary = json.load(f)
            goldens["simulate"][preset] = {"trace_sha256": sha256_file(argv[4]),
                                           "summary": summary}
    rc, out = quiet_main(SWEEP_ARGV)
    if rc != 0:
        raise SystemExit(f"sweep: exit code {rc}")
    goldens["sweep"] = json.loads(out)
    with open(GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.relpath(GOLDENS_PATH)}")


if __name__ == "__main__":
    main()
