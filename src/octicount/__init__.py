"""octicount: verification and counting workbench for octic towers L/K/Q.

Exact permutation-group verification of the classification, splitting and
valuation lemmas behind counting octic fields lying over S4-quartic fields,
plus snapshot-driven analytic evaluation of the leading constant and the
empirical error exponent.

The seven working modules load lazily: each is in `sys.modules` from
package import on, and its code runs on the first read of one of its
attributes, so a command compiles and runs only the modules it reads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = ["__version__"]


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


analytic, catalog, counting, nfdata, perms, splitting, verify = map(_lazy, (
    "analytic", "catalog", "counting", "nfdata", "perms", "splitting", "verify"))
