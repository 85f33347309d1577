"""Command-line entry point wiring the verification and counting modules.

Exit codes: 0 on success with zero reported failures, 1 on data errors or
failed verifications, 2 on usage errors.  Output is deterministic; wall
clock stamps appear only with --stamp and only in provenance footers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Callable, Iterator, Optional, TextIO

from . import analytic, counting, nfdata, splitting, verify
from .catalog import LABELS, catalog_group
from .perms import malle_alpha

__all__ = ["run", "main"]


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _stamp_footer(args) -> None:
    if getattr(args, "stamp", False):
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        sys.stderr.write(f"# generated {now}\n")


def _write_json(payload, json_file: Optional[TextIO]) -> None:
    """JSON to the file `run` opened for --json PATH, or to stdout for --json -."""
    (json_file or sys.stdout).write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextmanager
def _output_opened_first(path: Optional[str]) -> Iterator[Optional[TextIO]]:
    """Open a file next to an output path before the work that fills it, so
    that a bad path fails at once.  It replaces the path only when that work
    succeeds and is removed when it fails, so an earlier file there survives.
    Every output file goes through here: --json PATH, --emit-terms and --csv."""
    if not path:
        yield None
        return
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _output_besides_json(args, path: Optional[str]):
    """`_output_opened_first(path)` for an output that --json PATH must not share."""
    if (path and args.json not in (None, "-")
            and os.path.realpath(path) == os.path.realpath(args.json)):
        raise ValueError(f"--json and another output both name {path!r}")
    return _output_opened_first(path)


def _reports_payload(reports) -> dict:
    return {r.claim_id: r.as_dict() for r in reports}


def _print_reports(args, reports, payload,
                   note: Callable[[verify.VerificationReport], str]) -> int:
    """The payload as JSON, or one "claim: status" line per report, `note`
    appended, with its witnesses below.  Exit code 1 if any report failed."""
    if args.json is not None:
        _write_json(payload, args.json_file)
    else:
        for r in reports:
            _emit(f"{r.claim_id}: {r.status}{note(r)}")
            for w in r.witnesses:
                _emit(f"  witness: {w}")
    _stamp_footer(args)
    return 0 if all(r.passed for r in reports) else 1


MAX_CHECKPOINTS = 10_000


def _parse_checkpoints(spec: str) -> list[int]:
    """Checkpoint spec: comma list '10,100,1000' or geometric 'lo:hi:n'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("geometric spec is lo:hi:n")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if not (lo > 0 and hi > lo and n >= 2):
            raise ValueError("need 0 < lo < hi and n >= 2")
        if n > MAX_CHECKPOINTS:
            raise ValueError(f"need n <= MAX_CHECKPOINTS = {MAX_CHECKPOINTS}, got {n}")
        if not math.isfinite(hi / lo):
            raise ValueError(f"need finite lo, hi and hi/lo, got {spec!r}")
        ratio = (hi / lo) ** (1.0 / (n - 1))
        out = []
        for i in range(n):
            x = int(round(lo * ratio ** i))
            if not out or x > out[-1]:
                out.append(x)
        return out
    return sorted({int(tok) for tok in spec.split(",") if tok})


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


def _cmd_verify_groups(args) -> int:
    reports = verify.run_all_group_verifiers()
    return _print_reports(args, reports, _reports_payload(reports), lambda r: "")


def _cmd_verify_splitting(args) -> int:
    reports = splitting.run_all_splitting_verifiers([args.group] if args.group else None)
    return _print_reports(args, reports, _reports_payload(reports),
                          lambda r: f" ({r.details.get('configs_checked', 0)} configs)")


def _cmd_ingest(args) -> int:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds") if args.stamp else ""
    snap = nfdata.ingest(args.infile, provenance=args.provenance or args.infile,
                         ingest_time=stamp)
    nfdata.persist(snap, args.out)
    _emit(f"ingested {len(snap)} records -> {args.out}")
    return 0


def _rec_row(rec: nfdata.FieldRecord) -> dict:
    return {
        "label": rec.label,
        "degree": rec.degree,
        "galois": rec.galois,
        "disc": str(rec.disc),
        "abs_disc": str(rec.abs_disc),
        "parent_label": rec.parent_label or "",
    }


def _cmd_query(args) -> int:
    snap = nfdata.load(args.store)
    recs = nfdata.query(snap, degree=args.degree, galois_filter=args.galois,
                        max_abs_disc=args.max_disc)
    rows = [_rec_row(r) for r in recs]
    if args.json is not None:
        _write_json(rows, args.json_file)
    elif args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else
                                ["label", "degree", "galois", "disc", "abs_disc", "parent_label"])
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"))
    else:
        for row in rows:
            _emit(f"{row['label']} {row['galois']} {row['disc']}")
    _stamp_footer(args)
    return 0


def _cmd_constant(args) -> int:
    with _output_besides_json(args, args.emit_terms) as fh:
        snap = nfdata.load(args.store)
        pc = analytic.partial_constant(snap, args.max_disc, args.prime_bound)
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(["label", "term", "error_bound"])
            for label, val, err in pc.term_list:
                writer.writerow([label, repr(val), repr(err)])
    payload = {
        "Z": pc.Z,
        "prime_bound": pc.prime_bound,
        "terms": pc.terms,
        "value": pc.value,
        "error_bound": pc.error_bound,
        "kappa_annotation": analytic.KAPPA,
        "provenance": snap.provenance,
    }
    if args.json is not None:
        _write_json(payload, args.json_file)
    else:
        _emit(f"C({pc.Z}) = {pc.value!r} +/- {pc.error_bound!r} over {pc.terms} fields")
    _stamp_footer(args)
    return 0


def _cmd_count(args) -> int:
    with _output_besides_json(args, args.csv) as fh:
        snap = nfdata.load(args.store)
        checkpoints = _parse_checkpoints(args.checkpoints)
        series = counting.count_series(snap, args.galois or list(LABELS), checkpoints)
        rows = list(zip(series.checkpoints, series.counts))
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(["X", "N"])
            writer.writerows(rows)
    if args.json is not None:
        _write_json({"labels": series.group_filter,
                     "checkpoints": series.checkpoints,
                     "counts": series.counts}, args.json_file)
    else:
        for x, n in rows:
            _emit(f"{x} {n}")
    _stamp_footer(args)
    return 0


def _cmd_audit(args) -> int:
    report = counting.audit_lemmas(nfdata.load(args.store))
    return _print_reports(args, [report], report.as_dict(),
                          lambda r: f" ({r.details.get('octics_audited', 0)} octics audited)")


def _cmd_tail(args) -> int:
    n = counting.tail_count(nfdata.load(args.store), args.Z, args.X)
    if args.json is not None:
        _write_json({"Z": args.Z, "X": args.X, "count": n}, args.json_file)
    else:
        _emit(str(n))
    _stamp_footer(args)
    return 0


def _cmd_fit(args) -> int:
    snap = nfdata.load(args.store)
    if args.checkpoints:
        checkpoints = _parse_checkpoints(args.checkpoints)
    else:
        discs = sorted(r.abs_disc for r in nfdata.query(snap, degree=8))
        if len(discs) < 3:
            raise ValueError("need at least 3 octic records to fit")
        checkpoints = _parse_checkpoints(f"{max(discs[0], 1)}:{discs[-1]}:12")
    # Before the costly constant, so that a bad spec fails at once.
    counting.check_fit_checkpoints(checkpoints)
    pc = analytic.partial_constant(snap, args.max_disc, args.prime_bound)
    series = counting.count_series(snap, args.galois or list(LABELS), checkpoints)
    report = counting.fit_error(series, pc, provenance=snap.provenance)
    payload = {
        "theta_target": report.theta_target,
        "sup_ratio": report.sup_ratio,
        "slope": report.slope,
        "C": {"value": pc.value, "error_bound": pc.error_bound,
              "Z": pc.Z, "terms": pc.terms},
        "checkpoints": report.checkpoints,
        "residuals": report.residuals,
        "caveat_band": report.caveat_band,
        "provenance": report.provenance,
    }
    if args.json is not None:
        _write_json(payload, args.json_file)
    else:
        _emit(f"sup_ratio = {report.sup_ratio!r}")
        _emit(f"slope = {report.slope!r}")
        _emit(f"provenance = {report.provenance}")
    _stamp_footer(args)
    return 0


def _cmd_malle_alpha(args) -> int:
    _emit(str(malle_alpha(catalog_group(args.label))))
    return 0


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
                   choices=sorted({label for _, label in splitting.SPLITTING_VERIFIERS}))
    common(p)
    p.set_defaults(fn=_cmd_verify_splitting)

    p = sub.add_parser("ingest", help="validate and persist a record file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance", default="")
    p.add_argument("--stamp", action="store_true",
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


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    json_path = getattr(args, "json", None)  # opened before the work, like every output
    try:
        with _output_opened_first(None if json_path == "-" else json_path) as json_file:
            args.json_file = json_file
            return args.fn(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as exc:  # bad input data, or an unwritable output path
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
