"""Set-up time of one workload in a fresh interpreter.

Usage (from the repository root):
    python3 perfbench/setup_probe.py main ARGV...     # cli.main(ARGV)
    python3 perfbench/setup_probe.py preset NAME      # trace-reload

Times importing ctasim and building the argument parse and config, up to
the first simulated step (``main``) or the first CSV read (``preset``: the
config that read_trace_csv and summarize need), and prints the seconds.
The simulation itself is stopped by replacing ``cli.run_simulation`` with a
function that raises.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")

from ctasim import cli  # noqa: E402


class Ready(Exception):
    pass


def stop(cfg):
    raise Ready


def main(mode: str, args: list[str]) -> None:
    if mode == "preset":
        _ = cli.get_preset(args[0]).cfg  # all that read_trace_csv and summarize take
    else:
        cli.run_simulation = stop
        try:
            cli.main(args)
        except Ready:
            pass
        else:
            raise SystemExit(f"{args}: the command ended before simulating")
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
