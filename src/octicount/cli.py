"""Command-line entry point wiring the verification and counting modules.

Exit codes: 0 on success with zero reported failures, 1 on data errors or
failed verifications, 2 on usage errors.  Output is deterministic; wall
clock stamps appear only with --stamp: in a footer on stderr, or, for
`ingest`, in the store header.

Each `_cmd_*` handler returns (JSON payload, text lines, exit code) and
writes nothing to stdout or stderr; `run` writes the result.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, TextIO

# Each runs only when read (see `__init__`), and each handler reads its own:
# no group command runs `nfdata`, and no data command runs `perms`.
from . import analytic, catalog, counting, nfdata, perms, splitting, verify
from .labels import LABELS, SPLITTING_LEMMAS

__all__ = ["run", "main"]

_Result = tuple[object, list[str], int]


def _now() -> str:
    from datetime import datetime, timezone  # here: only --stamp reads the clock

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@contextmanager
def _output_opened_first(path: Optional[str]) -> Iterator[Optional[TextIO]]:
    """Open a file next to an output path before the work that fills it, so
    that a bad path fails at once.  It replaces the path only when that work
    succeeds and is removed when it fails, so an earlier file there survives.
    The file is new, with a name of this process's own, so no other file is
    ever written or removed.  Every output file goes through here: --json
    PATH, --emit-terms, --csv and ingest --out.  None means no such output;
    an empty path and a directory are refused."""
    if path is None:
        yield None
        return
    if not path:
        raise ValueError("an output path may not be empty")
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except FileExistsError:  # a leftover of this name: say which file it is
        raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


# The path options, by argparse dest.  --json comes last among the outputs,
# and --json - is stdout, not a path.
_INPUTS = {"store": "--store", "infile": "--in"}
_OUTPUTS = {"out": "--out", "csv": "--csv", "emit_terms": "--emit-terms", "json": "--json"}


def _refuse_shared_paths(args) -> None:
    """Before any work: no output may name an input (it would replace the file
    the work reads) or another output (one would replace the other)."""
    named: dict[str, str] = {}
    for kind, options in (("an input", _INPUTS), ("another output", _OUTPUTS)):
        for dest, option in options.items():
            path = getattr(args, dest, None)
            if not isinstance(path, str) or not path or (dest == "json" and path == "-"):
                continue  # absent, query's --csv switch, empty (refused on opening), or stdout
            key = os.path.realpath(path)
            if key in named:
                raise ValueError(f"{option} and {named[key]} both name {path!r}")
            named[key] = kind


def _reports_payload(reports) -> dict:
    return {r.claim_id: r.as_dict() for r in reports}


def _report_lines(reports, note: Callable[[verify.VerificationReport], str]
                  ) -> tuple[list[str], int]:
    """One "claim: status" line per report, `note` appended, with its
    witnesses below; exit code 1 if any report failed."""
    lines = []
    for r in reports:
        lines.append(f"{r.claim_id}: {r.status}{note(r)}")
        lines += [f"  witness: {w}" for w in r.witnesses]
    return lines, 0 if all(r.passed for r in reports) else 1


MAX_CHECKPOINTS = 10_000


def _parse_checkpoints(spec: str) -> list[int]:
    """Checkpoint spec: comma list '10,100,1000' or geometric 'lo:hi:n'.
    A comma list needs at least one entry.

    A geometric spec gives lo * (hi/lo)^(i/(n-1)) for i < n-1, each rounded
    half up, and then hi itself (its floor, which bounds the same integer
    discriminants), keeping each point that exceeds the one before.  lo and
    hi are read exactly and the points are computed in integers: the ratio
    (hi/lo)^(1/(n-1)) is a fixed-point integer with enough fraction bits
    that every point is within 2^-50 of its exact value.  The step is within
    one unit of its floor, so its relative error is below 2^(1-bits), and the
    n-1 products add less than one unit each.  A point that close to a
    half-integer m - 1/2 is rounded by an exact test in integers: point i
    is at least m - 1/2 exactly when (2m-1)^(n-1) den <= 2^(n-1) num, for
    num/den = lo^(n-1-i) hi^i, its (n-1)-th power.
    """
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("geometric spec is lo:hi:n")
        lo_f, hi_f, n = float(parts[0]), float(parts[1]), int(parts[2])
        if not (lo_f > 0 and hi_f > lo_f and n >= 2):
            raise ValueError("need 0 < lo < hi and n >= 2")
        if n > MAX_CHECKPOINTS:
            raise ValueError(f"need n <= MAX_CHECKPOINTS = {MAX_CHECKPOINTS}, got {n}")
        if not math.isfinite(hi_f / lo_f):
            raise ValueError(f"need finite lo, hi and hi/lo, got {spec!r}")
        from fractions import Fraction  # here: only a geometric spec reads it
        lo, hi = Fraction(parts[0]), Fraction(parts[1])
        k, ratio = n - 1, hi / lo
        bits = math.ceil(hi).bit_length() + k.bit_length() + 53
        guess = int(Fraction((hi_f / lo_f) ** (1 / k)) * 2 ** bits)
        step = _fixed_root(ratio, k, bits, guess)
        half, slack = 1 << bits - 1, 1 << bits - 50
        point, points = (lo.numerator << bits) // lo.denominator, []
        for i in range(k):
            m = (point + half + slack) >> bits
            if abs(point + half - (m << bits)) <= slack:  # at or near m - 1/2: decide exactly
                power = lo ** (k - i) * hi ** i
                m -= (2 * m - 1) ** k * power.denominator > 2 ** k * power.numerator
            points.append(m)
            point = point * step >> bits
        points.append(math.floor(hi))
        out = []
        for x in points:
            if not out or x > out[-1]:
                out.append(x)
        return out
    points = sorted({int(tok) for tok in spec.split(",") if tok})
    if not points:
        raise ValueError("need at least one checkpoint")
    return points


def _fixed_root(x: Fraction, k: int, bits: int, guess: int) -> int:
    """x^(1/k) * 2^bits for x >= 1, to within one unit of its floor, by
    Newton's method in fixed point from any guess.

    The root y is at least 1 and below 2^e with e = ceil(b/k), for x < 2^b.
    The iteration keeps F = bits + e + 8 fraction bits, and each power
    truncates every product to them (`_fixed_pow`), so no integer is much
    longer than 2 (F + b) bits: the exact floor root of x 2^(bits k) would
    run on a radicand of bits * k bits.  A truncated product of numbers >= 1
    is low by a relative 2^-F at most, so y^(k-1) is low by at most about
    k 2^-F, and the Newton step, which divides that term by k, lands within
    about 2y 2^-F of the exact step.  By the AM-GM inequality exact steps
    from any r > 0 land at or above y and then fall to it, so the steps stop
    within 2^(e+2-F) = 2^(-bits-6) of y, and the result is y 2^bits rounded
    down from within 2^-6 of it.  A close guess makes that a few steps.
    """
    e = -(-math.floor(x).bit_length() // k)
    F = bits + e + 8
    X = (x.numerator << 2 * F) // x.denominator  # x with 2F fraction bits

    def newton(r: int) -> int:
        return ((k - 1) * r + X // _fixed_pow(r, k - 1, F)) // k

    r = newton(max(guess << (F - bits), 1 << F))
    while True:
        s = newton(r)
        if s >= r:
            return r >> (F - bits)
        r = s


def _fixed_pow(r: int, m: int, F: int) -> int:
    """r^m in fixed point with F fraction bits, for r >= 2^F (at least 1),
    by squaring, each product rounded down to F fraction bits."""
    out = 1 << F
    while m:
        if m & 1:
            out = out * r >> F
        m >>= 1
        if m:
            r = r * r >> F
    return out


def _galois_labels(spec: str) -> list[str]:
    """argparse type of --galois: a comma list of known Galois labels."""
    labels = spec.split(",")
    unknown = [label for label in labels if label not in nfdata.GALOIS_LABELS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown Galois label(s) {', '.join(map(repr, unknown))}; "
            f"expected a comma list of {', '.join(sorted(nfdata.GALOIS_LABELS))}")
    return labels


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_verify_groups(args) -> _Result:
    reports = verify.run_all_group_verifiers()
    return (_reports_payload(reports), *_report_lines(reports, lambda r: ""))


def _cmd_verify_splitting(args) -> _Result:
    reports = splitting.run_all_splitting_verifiers([args.group] if args.group else None)
    return (_reports_payload(reports),
            *_report_lines(reports, lambda r: f" ({r.details['configs_checked']} configs)"))


def _cmd_ingest(args) -> _Result:
    with _output_opened_first(args.out) as fh:
        snap = nfdata.ingest(args.infile, provenance=args.provenance or args.infile,
                             ingest_time=_now() if args.stamp_header else "")
        nfdata.persist(snap, fh)
    return None, [f"ingested {len(snap)} records -> {args.out}"], 0


_QUERY_FIELDS = ("label", "degree", "galois", "disc", "abs_disc", "parent_label")


def _rec_row(rec: nfdata.FieldRecord) -> dict:
    return dict(zip(_QUERY_FIELDS, (rec.label, rec.degree, rec.galois, str(rec.disc),
                                    str(rec.abs_disc), rec.parent_label or "")))


def _cmd_query(args) -> _Result:
    snap = nfdata.load(args.store)
    recs = nfdata.query(snap, degree=args.degree, galois_filter=args.galois,
                        max_abs_disc=args.max_disc)
    rows = [_rec_row(r) for r in recs]
    if args.csv:
        import csv  # here, so that only the commands that write CSV load it

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_QUERY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
        lines = [buf.getvalue().rstrip("\n")]
    else:
        lines = [f"{row['label']} {row['galois']} {row['disc']}" for row in rows]
    return rows, lines, 0


def _cmd_constant(args) -> _Result:
    with _output_opened_first(args.emit_terms) as fh:
        snap = nfdata.load(args.store)
        pc = analytic.partial_constant(snap, args.max_disc, args.prime_bound)
        if fh is not None:
            import csv

            writer = csv.writer(fh)
            writer.writerow(["label", "term", "error_bound"])
            for label, val, err in pc.term_list:
                writer.writerow([label, repr(val), repr(err)])
    terms = len(pc.term_list)
    payload = {
        "Z": args.max_disc,
        "prime_bound": args.prime_bound,
        "terms": terms,
        "value": pc.value,
        "error_bound": pc.error_bound,
        "kappa_annotation": analytic.KAPPA,
        "provenance": snap.provenance,
    }
    line = f"C({args.max_disc}) = {pc.value!r} +/- {pc.error_bound!r} over {terms} fields"
    return payload, [line], 0


def _cmd_count(args) -> _Result:
    with _output_opened_first(args.csv) as fh:
        snap = nfdata.load(args.store)
        checkpoints = _parse_checkpoints(args.checkpoints)
        series = counting.count_series(snap, args.galois or list(LABELS), checkpoints)
        rows = list(zip(series.checkpoints, series.counts))
        if fh is not None:
            import csv

            writer = csv.writer(fh)
            writer.writerow(["X", "N"])
            writer.writerows(rows)
    payload = {"labels": series.group_filter,
               "checkpoints": series.checkpoints,
               "counts": series.counts}
    return payload, [f"{x} {n}" for x, n in rows], 0


def _cmd_audit(args) -> _Result:
    report = counting.audit_lemmas(nfdata.load(args.store))
    return (report.as_dict(), *_report_lines(
        [report], lambda r: f" ({r.details['octics_audited']} octics audited)"))


def _cmd_tail(args) -> _Result:
    n = counting.tail_count(nfdata.load(args.store), args.Z, args.X)
    return {"Z": args.Z, "X": args.X, "count": n}, [str(n)], 0


def _cmd_fit(args) -> _Result:
    snap = nfdata.load(args.store)
    if args.checkpoints:
        checkpoints = _parse_checkpoints(args.checkpoints)
    else:
        discs = sorted(r.abs_disc for r in snap.records.values() if r.degree == 8)
        if len(discs) < 3:
            raise ValueError("need at least 3 octic records to fit")
        checkpoints = _parse_checkpoints(f"{max(discs[0], 1)}:{discs[-1]}:12")
    # Before the costly constant, so that a bad spec fails at once.
    counting.check_fit_checkpoints(checkpoints)
    pc = analytic.partial_constant(snap, args.max_disc, args.prime_bound)
    series = counting.count_series(snap, args.galois or list(LABELS), checkpoints)
    report = counting.fit_error(series, pc)
    payload = {
        "theta_target": counting.THETA_TARGET,
        "sup_ratio": report.sup_ratio,
        "slope": report.slope,
        "C": {"value": pc.value, "error_bound": pc.error_bound,
              "Z": args.max_disc, "terms": len(pc.term_list)},
        "checkpoints": series.checkpoints,
        "residuals": report.residuals,
        "caveat_band": report.caveat_band,
        "provenance": snap.provenance,
    }
    return payload, [f"sup_ratio = {report.sup_ratio!r}",
                     f"slope = {report.slope!r}",
                     f"provenance = {snap.provenance}"], 0


def _cmd_malle_alpha(args) -> _Result:
    return None, [str(perms.malle_alpha(catalog.catalog_group(args.label)))], 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octicount",
        description="Verification and counting workbench for octic towers over S4-quartic fields.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, store=False):
        p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", help="emit JSON (to PATH, or stdout)")
        p.add_argument("--stamp", action="store_true",
                       help="append a timestamp footer on stderr")
        if store:
            p.add_argument("--store", required=True, help="snapshot store path")

    p = sub.add_parser("verify-groups", help="run the five group-theoretic verifiers")
    common(p)
    p.set_defaults(fn=_cmd_verify_groups)

    p = sub.add_parser("verify-splitting", help="run the tame-splitting lemma verifiers")
    p.add_argument("--group", default=None,
                   choices=sorted({label for _, label in SPLITTING_LEMMAS}))
    common(p)
    p.set_defaults(fn=_cmd_verify_splitting)

    p = sub.add_parser("ingest", help="validate and persist a record file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance", default="")
    p.add_argument("--stamp", dest="stamp_header", action="store_true",
                   help="record the ingest time in the store header")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("query", help="filter records from a store")
    common(p, store=True)
    p.add_argument("--degree", type=int, choices=(4, 8), default=None)
    p.add_argument("--galois", type=_galois_labels, default=None,
                   help="comma-separated label filter")
    p.add_argument("--max-disc", type=int, default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("constant", help="evaluate the partial leading constant C(Z)")
    common(p, store=True)
    p.add_argument("--max-disc", type=int, required=True, metavar="Z")
    p.add_argument("--prime-bound", type=int, default=10 ** 5)
    p.add_argument("--emit-terms", default=None, metavar="CSV")
    p.set_defaults(fn=_cmd_constant)

    p = sub.add_parser("count", help="counting function N(X) at checkpoints")
    common(p, store=True)
    p.add_argument("--galois", type=_galois_labels, default=None)
    p.add_argument("--checkpoints", required=True,
                   help="comma list '10,100' or geometric 'lo:hi:n'")
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("audit", help="audit valuation patterns on a store")
    common(p, store=True)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("tail", help="squarefull-tail statistic over quartics")
    common(p, store=True)
    p.add_argument("--Z", type=int, required=True)
    p.add_argument("--X", type=int, required=True)
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser("fit", help="fit the empirical error exponent")
    common(p, store=True)
    p.add_argument("--max-disc", type=int, required=True, metavar="Z",
                   help="quartic discriminant cutoff for the constant")
    p.add_argument("--prime-bound", type=int, default=10 ** 5)
    p.add_argument("--galois", type=_galois_labels, default=None)
    p.add_argument("--checkpoints", default=None)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("malle-alpha", help="print the Malle invariant of a catalog group")
    p.add_argument("--label", required=True, choices=list(LABELS))
    p.set_defaults(fn=_cmd_malle_alpha)

    return parser


def run(argv: list[str]) -> int:
    """Run one command and write its result: the JSON payload to the --json
    file or stdout, else the text lines to stdout; then the --stamp footer."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    json_path = getattr(args, "json", None)
    try:
        _refuse_shared_paths(args)
        with _output_opened_first(None if json_path == "-" else json_path) as json_file:
            payload, lines, code = args.fn(args)
            if json_path is None:
                sys.stdout.writelines(line + "\n" for line in lines)
            else:
                (json_file or sys.stdout).write(
                    json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if getattr(args, "stamp", False):
            sys.stderr.write(f"# generated {_now()}\n")
        return code
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as exc:  # bad input data, or an unwritable output path
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    """Run the command named in sys.argv and exit with its code.

    The process ends with the command, so the cyclic collector is off while
    it works, where it would only cost time (`constant` at P = 10^7 peaks at
    the same RSS, within 0.3 MB).  Finalization still collects all the command
    built, unless `gc.freeze()` first moves it out of reach; stdio is still
    flushed, `atexit` handlers run and files close.  Neither is in `run`,
    which tests and tracers call in a process that goes on.  numpy gets one
    OpenBLAS thread unless the caller set a number: no numpy call of the
    package uses BLAS, and an idle worker thread still costs CPU.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
