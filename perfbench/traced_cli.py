"""Run ``kinorbit.cli.main`` with the benchmark's tracer installed.

Usage: traced_cli.py SPANS_FILE CLI_ARG...

Stdout and the exit status are those of ``python -m kinorbit.cli
CLI_ARG...``; the spans are written to SPANS_FILE when the command ends.
"""

import sys

import kinorbit.cli
from spans import Tracer

tracer = Tracer()
tracer.install()
tracer.active = True
try:
    status = kinorbit.cli.main(sys.argv[2:])
finally:
    tracer.active = False
    tracer.dump(sys.argv[1])
sys.exit(status)
