"""octicount: verification and counting workbench for octic towers L/K/Q.

Exact permutation-group verification of the classification, splitting and
valuation lemmas behind counting octic fields lying over S4-quartic fields,
plus snapshot-driven analytic evaluation of the leading constant and the
empirical error exponent.
"""

from .perms import Perm, PermGroup, malle_alpha, wreath_c2_s4
from .catalog import LABELS, catalog_group

__version__ = "0.1.0"

__all__ = [
    "Perm",
    "PermGroup",
    "malle_alpha",
    "wreath_c2_s4",
    "LABELS",
    "catalog_group",
    "__version__",
]
