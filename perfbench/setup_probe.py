"""Set-up probe: a fresh process timed from its start to its first operation.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SIZE SEED REPORT_PATH``

Runs the workload's CLI command exactly as a timed run does, and writes
``setup <monotonic clock>`` to stdout and exits the moment the first
operation would start.  For a service mix that is the first call of its
timed request function, which is not run.  A sweep is timed per CLI run
(see :mod:`workloads`), so its first operation starts when the CLI has
parsed its arguments.  The parent reads the clock before starting this
process, so the difference covers interpreter start, imports, argument
parsing and, for a service mix, whatever the command does before its
first request.
"""

from __future__ import annotations

import os
import sys
import time


def stamp_and_exit() -> None:
    os.write(1, f"setup {time.monotonic()!r}\n".encode())
    os._exit(0)


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    from instrument import Patches
    from workloads import WORKLOADS

    from repro.__main__ import main as cli_main

    workload = WORKLOADS[sys.argv[1]]
    size, seed, report_path = sys.argv[2], int(sys.argv[3]), sys.argv[4]

    def before_first_request(fn):
        def first_request(*args, **kwargs):
            stamp_and_exit()

        return first_request

    def after_parsing(fn):
        def parse_args(*args, **kwargs):
            fn(*args, **kwargs)
            stamp_and_exit()

        return parse_args

    patches = Patches()
    if workload.op_target is not None:
        patches.wrap(workload.op_target, before_first_request)
    else:
        patches.wrap("argparse:ArgumentParser.parse_args", after_parsing)
    cli_main(workload.argv(size, seed, report_path))
    raise SystemExit("setup probe: the workload ran no operation")


if __name__ == "__main__":
    main()
