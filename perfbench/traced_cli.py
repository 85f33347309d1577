"""Run one octicount command under the per-layer tracer.

    PYTHONPATH=src python3 perfbench/traced_cli.py TRACE.json verify-groups --json -

Behaves like perfbench/octicount_cli.py (same stdout and exit code) and
writes the aggregated spans and counts to TRACE.json when the command ends.
"""

import sys

import octicount.cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = tracer.run_root(octicount.cli.run, sys.argv[2:])
    sys.stdout.flush()
    tracer.write(sys.argv[1])
    sys.exit(code)
