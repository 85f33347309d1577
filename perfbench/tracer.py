"""Per-layer tracing of one octicount process, from outside the package.

`Tracer.install()` replaces the public functions of each octicount module
with timing wrappers, at every place the function is bound: the defining
module, every module that imported it by name, and tuples such as
`verify.GROUP_VERIFIERS`.  A span's self time is its duration minus the
time of the wrapped calls made inside it.  Work counts come from return
values (isomorphism hits, trusted primes, configuration lists) and from two
counting hooks: `Perm.__mul__` and the closure behind `PermGroup.elements`.

Spans are aggregated in memory per name and written as one JSON file when
the process ends.  Nothing is printed, so stdout is unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name, result counter).  The counter, if any, is
# called with the span's return value and the tracer's Counter.
SPANS = (
    ("perms", "subgroup_classes", "perms.subgroup_classes", None),
    ("perms", "normal_subgroups", "perms.normal_subgroups", None),
    ("perms", "abstract_isomorphic", "perms.abstract_isomorphic",
     lambda r, c: c.update({"perms.abstract_isomorphic.hits": bool(r)})),
    ("perms", "perm_isomorphic", "perms.perm_isomorphic",
     lambda r, c: c.update({"perms.perm_isomorphic.hits": r is not None})),
    ("perms", "coset_action", "perms.coset_action", None),
    ("perms", "quotient_as_perm", "perms.quotient_as_perm", None),
    ("catalog", "quartic_subgroups", "catalog.quartic_subgroups", None),
    ("catalog", "quartic_action", "catalog.quartic_action", None),
    ("catalog", "octic_action", "catalog.octic_action", None),
    ("verify", "verify_classification", "verify.classification", None),
    ("verify", "verify_converse", "verify.converse", None),
    ("verify", "verify_a8_containment", "verify.a8_containment", None),
    ("verify", "verify_table1", "verify.table1", None),
    ("verify", "verify_s4_unique_octic", "verify.s4_unique_octic", None),
    ("splitting", "enumerate_tame_configs", "splitting.enumerate_tame_configs",
     lambda r, c: c.update({"splitting.configs.count": len(r)})),
    ("splitting", "splitting_symbol", "splitting.splitting_symbol", None),
    ("splitting", "valuation_profile", "splitting.valuation_profile", None),
    ("nfdata", "ingest_lines", "nfdata.ingest_lines", None),
    ("nfdata", "FieldRecord.validate", "nfdata.validate", None),
    ("nfdata", "persist", "nfdata.persist", None),
    ("nfdata", "load", "nfdata.load", None),
    ("nfdata", "query", "nfdata.query", None),
    ("analytic", "factor_mod_p", "analytic.factor_mod_p", None),
    ("analytic", "local_factor_data", "analytic.local_factor_data",
     lambda r, c: c.update({"analytic.primes_trusted" if r.trusted
                            else "analytic.primes_untrusted": 1})),
    ("analytic", "zeta_K_at_2", "analytic.zeta_K_at_2", None),
    ("analytic", "zeta_residue", "analytic.zeta_residue", None),
    ("analytic", "partial_constant", "analytic.partial_constant", None),
    ("counting", "audit_lemmas", "counting.audit_lemmas", None),
    ("counting", "split_rel_disc", "counting.split_rel_disc", None),
    ("counting", "count_series", "counting.count_series", None),
    ("counting", "fit_error", "counting.fit_error", None),
)

ROOT = "root"


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span

    def wrap(self, name, fn, count_result=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
            if count_result is not None:
                count_result(result, counts)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        from octicount import perms

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "octicount" or n.startswith("octicount.")]
        for mod_name, attr, name, count_result in SPANS:
            owner = sys.modules[f"octicount.{mod_name}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count_result))
                continue
            original = getattr(owner, attr)
            _rebind(modules, original, self.wrap(name, original, count_result))
        self._count_perm_work(perms)

    def _count_perm_work(self, perms) -> None:
        counts = self.counts
        mul = perms.Perm.__mul__

        def counted_mul(a, b):
            counts["perms.mul.count"] += 1
            return mul(a, b)

        perms.Perm.__mul__ = counted_mul
        close = perms.PermGroup.__dict__["elements"].func

        def counted_elements(group):
            elems = close(group)
            counts["perms.closure.count"] += 1
            counts["perms.closure.elements"] += len(elems)
            return elems

        prop = functools.cached_property(counted_elements)
        prop.__set_name__(perms.PermGroup, "elements")
        perms.PermGroup.elements = prop

    def run_root(self, fn, *args):
        return self.wrap(ROOT, fn)(*args)

    def write(self, path: str) -> None:
        from octicount import nfdata

        info = nfdata._is_irreducible.cache_info()
        self.counts["nfdata.irreducible.hits"] += info.hits
        self.counts["nfdata.irreducible.misses"] += info.misses
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh,
                      sort_keys=True)


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
            elif isinstance(value, tuple) and any(v is original for v in value):
                setattr(mod, key, tuple(wrapped if v is original else v for v in value))
