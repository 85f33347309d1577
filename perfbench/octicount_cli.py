"""Run the octicount command line from a source checkout.

    PYTHONPATH=src python3 perfbench/octicount_cli.py verify-groups --json -

The package declares an `octicount` console script, but a bare checkout has
none installed, and `octicount.cli` has no `__main__` guard.
"""

from octicount.cli import main

if __name__ == "__main__":
    main()
