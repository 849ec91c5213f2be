"""Set-up and memory probe: a fresh interpreter pays what a user's first call pays.

Usage: setup_probe.py WORKLOAD SEED [OPS]

It imports ``kinorbit`` and ``kinorbit.cli`` and makes the workload's
warm-up call: ``kinorbit list`` for the CLI workload, otherwise one
untimed operation of the workload.  With OPS, it then runs the workload's
first OPS operations without their checks and prints its peak resident
memory in KiB, so that the figure is kinorbit's and not the checker's.
"""

import contextlib
import os
import resource
import sys

import kinorbit
import kinorbit.cli

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "cli_trajectories":
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        status = kinorbit.cli.main(["list"])
    sys.exit(status)

import workloads  # noqa: E402

spec = workloads.WORKLOADS[workload]
spec.run(spec.draw(workloads.rng_for(workload, seed, "warmup"), 0))
if len(sys.argv) > 3:
    for index in range(int(sys.argv[3])):
        spec.run(spec.draw(workloads.rng_for(workload, seed, index), index))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
