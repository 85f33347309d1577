"""CLI behavior: formats, exit codes, determinism."""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import octicount.analytic
import octicount.cli
import octicount.counting
import octicount.nfdata
from conftest import record_json_line
from octicount.analytic import MAX_PRIME_BOUND
from octicount.cli import MAX_CHECKPOINTS, _fixed_root, _parse_checkpoints, run


@pytest.fixture(scope="module")
def records_file(tmp_path_factory):
    # 19 quartics and 19 octics from `model_tower_records`: one pair per
    # tame configuration of 8T23.
    from conftest import model_tower_records

    records, _ = model_tower_records("8T23", 1, 500)
    path = tmp_path_factory.mktemp("in") / "in.jsonl"
    path.write_text("\n".join(record_json_line(r) for r in records) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def store(tmp_path_factory, records_file):
    out = tmp_path_factory.mktemp("store") / "store.jsonl"
    rc = run(["ingest", "--in", records_file, "--out", str(out)])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def inputs(store, records_file):
    """The paths that the STORE and IN placeholders of an argv list stand for."""
    return {"STORE": store, "IN": records_file}


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["count"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_removed_flags_are_usage_errors(self, capsys):
        assert run(["verify-groups", "--threads", "2"]) == 2
        assert run(["verify-splitting", "--include-nontame"]) == 2
        capsys.readouterr()

    def test_ingest_has_no_json_flag(self, capsys, tmp_path):
        # ingest writes its store to --out and never wrote a --json file.
        out = tmp_path / "out.jsonl"
        assert run(["ingest", "--in", "in.jsonl", "--out", str(out),
                    "--json", str(tmp_path / "x.json")]) == 2
        assert "--json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subcommand", [
        ["count", "--checkpoints", "10"],
        ["fit", "--max-disc", "10"],
        ["query"],
    ], ids=lambda args: args[0])
    def test_unknown_galois_label_is_usage_error(self, subcommand, store, capsys):
        # An unknown label matches no record, so it once read as a count of 0.
        assert run(subcommand + ["--store", store, "--galois", "8T23,8T99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "'8T99'" in captured.err
        assert "'8T23'" not in captured.err

    @pytest.mark.parametrize("spec", ["1:inf:5", "1:1e400:5", "5e-324:1e10:4"])
    @pytest.mark.parametrize("subcommand", [["count"], ["fit", "--max-disc", "10"]],
                             ids=lambda args: args[0])
    def test_unbounded_checkpoints_are_data_errors(self, subcommand, spec, store, capsys):
        assert run(subcommand + ["--store", store, "--checkpoints", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    @pytest.mark.parametrize("subcommand, spec", [
        (["count"], ""), (["count"], ","), (["fit", "--max-disc", "10"], ","),
    ])
    def test_empty_checkpoint_list_is_data_error(self, subcommand, spec, store, capsys):
        # A comma list with no entries once counted nothing and exited 0.
        # An empty fit spec takes the default checkpoints, so only "," is refused there.
        assert run(subcommand + ["--store", store, f"--checkpoints={spec}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least one checkpoint\n"

    @pytest.mark.parametrize("subcommand", [["count"], ["fit", "--max-disc", "10"]],
                             ids=lambda args: args[0])
    def test_too_many_checkpoints_are_data_errors(self, subcommand, store, capsys):
        # The geometric spec was expanded point by point: n = 10^9 ran for
        # minutes and held hundreds of millions of ints.
        spec = "1:1e18:1000000000"
        assert run(subcommand + ["--store", store, "--checkpoints", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need n <= MAX_CHECKPOINTS = 10000, got 1000000000\n"

    @pytest.mark.parametrize("P", [5, -7, MAX_PRIME_BOUND + 1])
    @pytest.mark.parametrize("subcommand", [["constant"], ["fit", "--checkpoints", "10:1000:3"]],
                             ids=lambda args: args[0])
    def test_prime_bound_out_of_range_is_data_error(self, subcommand, P, store, capsys,
                                                    monkeypatch):
        # A huge bound once went straight to a P-byte sieve; a negative one,
        # with no field below the cutoff, printed a constant and exit 0.
        monkeypatch.setattr(octicount.analytic, "primes_up_to",
                            lambda n: pytest.fail("sieve built"))
        for max_disc in ("1", "10000000"):
            assert run(subcommand + ["--store", store, "--max-disc", max_disc,
                                     "--prime-bound", str(P)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: need 100 <= prime bound <= MAX_PRIME_BOUND = "
                                    f"{MAX_PRIME_BOUND}, got {P}\n")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(num=st.integers(1, 10 ** 60), den=st.integers(1, 10 ** 20), k=st.integers(1, 40),
           bits=st.integers(0, 200), guess=st.integers(-5, 10 ** 30))
    def test_fixed_point_root_from_any_guess(self, num, den, k, bits, guess):
        # The root is z^(1/k) rounded down from within 2^-6 of it, z = x 2^(bits k).
        x = max(Fraction(num, den), Fraction(1))
        root, z = _fixed_root(x, k, bits, guess), x * 2 ** (bits * k)
        assert (64 * root - 1) ** k <= 64 ** k * z < (64 * root + 65) ** k

    def test_checkpoint_root_work_is_bounded(self):
        # A work bound, not a timing: the longest integer the root's frames
        # hold.  The exact floor root of this spec ran Newton's method on a
        # radicand of 10.6 million bits, for about 9 s.
        spec, longest = "1:1e300:10000", 0
        roots = {octicount.cli._fixed_root.__code__, octicount.cli._fixed_pow.__code__}

        def trace(frame, event, arg):
            nonlocal longest
            if frame.f_code in roots:
                longest = max([longest] + [v.bit_length() for v in frame.f_locals.values()
                                           if isinstance(v, int)])
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            checkpoints = _parse_checkpoints(spec)
        finally:
            sys.settrace(previous)
        assert 0 < longest <= 4000  # 3,143 bits
        assert checkpoints[0] == 1 and checkpoints[-1] == 10 ** 300
        assert len(checkpoints) == 9975  # the first points round to the same integers
        with localcontext() as ctx:
            ctx.prec = 400
            for i in range(1111, 9999, 1111):  # point i, rounded half up
                exact = Decimal(10) ** (Decimal(300 * i) / 9999) + Decimal("0.5")
                assert checkpoints[i - 10000] == int(exact.to_integral_value(ROUND_FLOOR))

    def test_checkpoint_cap_is_inclusive(self):
        assert len(_parse_checkpoints(f"1e6:1e18:{MAX_CHECKPOINTS}")) == MAX_CHECKPOINTS

    @pytest.mark.parametrize("spec, expected", [
        # Expanded in floats, these ended at 999999999999996501447415955456
        # and 4789302101776261750458819805184, below hi.
        ("1:1e30:7", [10 ** (5 * i) for i in range(7)]),
        ("141717264645719547676317371420:4789302101776266250498516669819:12", None),
        ("0.37:12345.6:9", None),
        ("1e6:1e18:200", None),
        # Points 4.5, 7.5 and 2.5 are exact ties, which round up.
        ("2.7:12.5:4", [3, 5, 8, 12]),
        ("0.4:15.625:3", [0, 3, 15]),
    ])
    def test_geometric_checkpoints_are_exact(self, spec, expected):
        # Against each point rounded half up from 80-digit decimal arithmetic,
        # and the last point is hi itself, rounded down.
        lo, hi, n = spec.split(":")
        lo, hi, n = Decimal(lo), Decimal(hi), int(n)
        with localcontext() as ctx:
            ctx.prec = 80
            points = [lo * (hi / lo) ** (Decimal(i) / (n - 1)) + Decimal("0.5")
                      for i in range(n - 1)] + [hi]
            reference = [int(x.to_integral_value(ROUND_FLOOR)) for x in points]
        checkpoints = _parse_checkpoints(spec)
        assert checkpoints == reference
        if expected is not None:
            assert checkpoints == expected

    def test_fit_rejects_checkpoints_before_the_constant(self, store, capsys, monkeypatch):
        # The constant can take minutes at the default prime bound.
        monkeypatch.setattr(octicount.analytic, "partial_constant",
                            lambda *args, **kwargs: pytest.fail("constant evaluated"))
        assert run(["fit", "--store", store, "--max-disc", "10", "--checkpoints",
                    "1:inf:5"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, error", [
        ("0,5,100", "need checkpoints >= 1 to fit, got 0"),
        ("-10,5,100", "need checkpoints >= 1 to fit, got -10"),
        ("0.1:1000:5", "need checkpoints >= 1 to fit, got 0"),
        ("5,100", "need at least 3 checkpoints"),
    ])
    def test_fit_rejects_unusable_checkpoints(self, spec, error, store, capsys, monkeypatch):
        # 0 once divided by zero inside fit_error and -10 raised a TypeError
        # on a complex power, each as a traceback after the whole constant.
        monkeypatch.setattr(octicount.analytic, "partial_constant",
                            lambda *args, **kwargs: pytest.fail("constant evaluated"))
        argv = ["--store", store, f"--checkpoints={spec}"]
        assert run(["fit", "--max-disc", "10", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"
        assert run(["count", *argv]) == 0  # N(X) needs no such limit
        capsys.readouterr()

    def test_bad_store_is_data_error(self, capsys, tmp_path):
        missing = str(tmp_path / "none.jsonl")
        assert run(["query", "--store", missing]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["ingest", "--out", "out.jsonl", "--in"],
        ["query", "--store"],
        ["constant", "--max-disc", "10", "--store"],
        ["count", "--checkpoints", "10", "--store"],
        ["audit", "--store"],
        ["tail", "--Z", "1", "--X", "10", "--store"],
        ["fit", "--max-disc", "10", "--store"],
    ], ids=lambda args: args[0])
    def test_missing_input_is_one_error_line(self, args, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # ingest opens its relative --out before reading
        missing = str(tmp_path / "none.jsonl")
        assert run(args + [missing]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and missing in captured.err
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, content, error", [
        (["ingest", "--out", "out.jsonl", "--in"], b"[" * 100_000 + b"]" * 100_000,
         "line 1: maximum recursion depth exceeded"),
        (["audit", "--store"], b"[" * 100_000 + b"]" * 100_000,
         "PATH: bad header: maximum recursion depth exceeded"),
        (["ingest", "--out", "out.jsonl", "--in"], b"\xff\n",
         "PATH: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["ingest-nested", "audit-nested", "ingest-not-utf8"])
    def test_hostile_input_is_one_error_line(self, args, content, error, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        hostile = tmp_path / "hostile.jsonl"
        hostile.write_bytes(content)
        assert run(args + [str(hostile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + error.replace("PATH", str(hostile)))
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [hostile]

    @pytest.mark.parametrize("args", [
        ["verify-splitting", "--group", "8T23", "--json"],
        ["count", "--checkpoints", "10", "--store", "STORE", "--csv"],
        ["constant", "--max-disc", "10", "--prime-bound", "100", "--store", "STORE",
         "--emit-terms"],
    ], ids=lambda args: args[0])
    def test_unwritable_output_is_one_error_line(self, args, store, capsys, tmp_path):
        target = str(tmp_path / "no-such-dir" / "out")
        argv = [store if a == "STORE" else a for a in args] + [target]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and target in captured.err
        assert captured.err.count("\n") == 1


def _argv(args, inputs, target):
    return [inputs.get(a, a) for a in args] + [str(target)]


class TestOutputOpenedFirst:
    # Each command's output path comes last; the patched function does the work.
    COSTLY = [
        pytest.param(["constant", "--store", "STORE", "--max-disc", "10000000",
                      "--prime-bound", "1000", "--emit-terms"], "analytic",
                     "partial_constant", id="constant"),
        pytest.param(["count", "--store", "STORE", "--checkpoints", "10,1000000", "--csv"],
                     "counting", "count_series", id="count"),
        pytest.param(["constant", "--store", "STORE", "--max-disc", "10000000",
                      "--prime-bound", "1000", "--json"], "analytic", "partial_constant",
                     id="constant-json"),
        pytest.param(["verify-groups", "--json"], "verify", "run_all_group_verifiers",
                     id="verify-groups-json"),
        pytest.param(["audit", "--store", "STORE", "--json"], "counting", "audit_lemmas",
                     id="audit-json"),
        pytest.param(["ingest", "--in", "IN", "--out"], "nfdata", "ingest", id="ingest"),
    ]

    @pytest.mark.parametrize("args, module, name", COSTLY)
    def test_bad_output_path_fails_before_the_work(self, args, module, name, inputs, capsys,
                                                   tmp_path, monkeypatch):
        # The output once opened only after the Euler products (or, for
        # --json PATH, the verifiers; for ingest --out, the validation) were done.
        calls = []
        monkeypatch.setattr(getattr(octicount, module), name,
                            lambda *a, **kw: calls.append(a))
        target = tmp_path / "no-such-dir" / "out.csv"
        assert run(_argv(args, inputs, target)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert calls == []

    @pytest.mark.parametrize("args, module, name", COSTLY)
    def test_earlier_output_survives_failed_work(self, args, module, name, inputs, capsys,
                                                 tmp_path, monkeypatch):
        def fail(*a, **kw):
            assert len(list(tmp_path.glob("out.csv.*.tmp"))) == 1  # opened before the work
            raise ValueError("the work failed")

        monkeypatch.setattr(getattr(octicount, module), name, fail)
        target = tmp_path / "out.csv"
        target.write_text("earlier output\n")
        assert run(_argv(args, inputs, target)) == 1
        assert capsys.readouterr().err == "error: the work failed\n"
        assert sorted(tmp_path.iterdir()) == [target]
        assert target.read_text() == "earlier output\n"

    @pytest.mark.parametrize("args", [
        ["constant", "--max-disc", "10000000", "--prime-bound", "0", "--emit-terms"],
        ["count", "--checkpoints", "10,x", "--csv"],
        ["fit", "--max-disc", "10", "--checkpoints", "0,5,100", "--json"],
    ], ids=["constant", "count", "fit-json"])
    def test_earlier_output_survives_bad_arguments(self, args, store, capsys, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("earlier output\n")
        assert run([*args, str(target), "--store", store]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.iterdir()) == [target]
        assert target.read_text() == "earlier output\n"

    @pytest.mark.parametrize("args", [
        ["count", "--checkpoints", "10,x", "--csv"],
        ["count", "--checkpoints", "10", "--csv"],
    ], ids=["failed", "succeeded"])
    def test_file_at_the_temporary_name_survives(self, args, store, capsys, tmp_path):
        # The temporary file was once PATH + ".tmp": a file of that name was
        # truncated, and deleted when the command failed.
        target, kept = tmp_path / "out.csv", tmp_path / "out.csv.tmp"
        kept.write_text("user data\n")
        code = run([*args, str(target), "--store", store])
        capsys.readouterr()
        assert kept.read_text() == "user data\n"
        assert sorted(tmp_path.iterdir()) == sorted([kept] + [target] * (code == 0))

    @pytest.mark.parametrize("args, module, name", COSTLY)
    def test_output_naming_a_directory_fails_before_the_work(self, args, module, name, inputs,
                                                             capsys, tmp_path, monkeypatch):
        # Such a path once failed only at the final replace, after all the work.
        calls = []
        monkeypatch.setattr(getattr(octicount, module), name,
                            lambda *a, **kw: calls.append(a))
        target = tmp_path / "out"
        target.mkdir()
        assert run(_argv(args, inputs, target)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
        assert calls == []
        assert sorted(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("args, module, name", COSTLY[:2])
    def test_json_may_not_share_the_other_output(self, args, module, name, inputs, capsys,
                                                 tmp_path, monkeypatch):
        # One file cannot hold both outputs; the JSON once silently replaced the CSV.
        calls = []
        monkeypatch.setattr(getattr(octicount, module), name,
                            lambda *a, **kw: calls.append(a))
        target = tmp_path / "out.csv"
        target.write_text("earlier output\n")
        assert run(_argv(args, inputs, target) + ["--json", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"error: --json and another output both name {str(target)!r}\n")
        assert calls == []
        assert sorted(tmp_path.iterdir()) == [target]
        assert target.read_text() == "earlier output\n"

    @pytest.mark.parametrize("args, module, name", COSTLY)
    def test_output_written_on_success(self, args, module, name, inputs, capsys, tmp_path):
        target = tmp_path / "out.csv"
        assert run(_argv(args, inputs, target)) == 0
        capsys.readouterr()
        assert sorted(tmp_path.iterdir()) == [target]
        first = target.read_text().splitlines()[0]
        assert (first in ("label,term,error_bound", "X,N", "{")
                or json.loads(first)["format"] == "octic-snapshot/1")

    @pytest.mark.parametrize("args, module, name", COSTLY)
    def test_empty_output_path_is_refused(self, args, module, name, inputs, capsys,
                                          tmp_path, monkeypatch):
        # --json= once wrote the JSON to stdout and --csv= or --emit-terms=
        # wrote no file, each with exit 0; ingest --out= validated every
        # record, then failed and left ".tmp" in the working directory.
        calls = []
        monkeypatch.setattr(getattr(octicount, module), name,
                            lambda *a, **kw: calls.append(a))
        monkeypatch.chdir(tmp_path)
        argv = _argv(args, inputs, "")[:-1]
        argv[-1] += "="
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: an output path may not be empty\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["count", "--checkpoints", "10", "--store", "STORE", "--csv"],
        ["constant", "--max-disc", "10", "--store", "STORE", "--emit-terms"],
        ["audit", "--store", "STORE", "--json"],
        ["ingest", "--in", "STORE", "--out"],
    ], ids=lambda args: args[0])
    def test_output_may_not_name_an_input(self, args, store, capsys, tmp_path, monkeypatch):
        # count --csv and audit --json once replaced the store they read, exit 0.
        monkeypatch.setattr(octicount.nfdata, "load", lambda *a: pytest.fail("input read"))
        monkeypatch.setattr(octicount.nfdata, "ingest", lambda *a, **kw: pytest.fail("input read"))
        copy = tmp_path / "store.jsonl"
        shutil.copy(store, copy)
        target = f"{tmp_path}/./store.jsonl"  # the same file, spelled otherwise
        assert run(_argv(args, {"STORE": str(copy)}, target)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {args[-1]} and an input both name {target!r}\n"
        assert sorted(tmp_path.iterdir()) == [copy]
        assert copy.read_bytes() == Path(store).read_bytes()

    def test_output_naming_a_directory_leaves_no_temporary_file(self, records_file, capsys,
                                                                tmp_path):
        # persist once wrote a temporary file of its own and left it there
        # when replacing the directory failed.
        target = tmp_path / "store"
        target.mkdir()
        assert run(["ingest", "--in", records_file, "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [target]


class TestMalleAlpha:
    def test_8T23(self, capsys):
        assert run(["malle-alpha", "--label", "8T23"]) == 0
        assert capsys.readouterr().out.strip() == "1/3"

    def test_runs_as_a_module(self, store):
        # `python -m octicount.cli` once imported the module, ran nothing
        # and exited 0, whatever the command.
        env = dict(os.environ, PYTHONPATH=str(Path(octicount.cli.__file__).parent.parent))

        def module_run(*argv):
            return subprocess.run([sys.executable, "-m", "octicount.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)

        ok = module_run("malle-alpha", "--label", "8T40")
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, "1/2\n", "")
        bad = module_run("count", "--store", store, "--checkpoints", "10,x")
        assert bad.returncode == 1 and bad.stdout == ""
        assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1

    def test_package_runs_as_a_module(self, store):
        # `python -m octicount` once failed: the package had no `__main__` module.
        env = dict(os.environ, PYTHONPATH=str(Path(octicount.cli.__file__).parent.parent))
        argv = [sys.executable, "-m", "octicount"]
        ok = subprocess.run([*argv, "malle-alpha", "--label", "8T40"], env=env,
                            capture_output=True, text=True, timeout=300)
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, "1/2\n", "")
        bad = subprocess.run([*argv, "count", "--store", store, "--checkpoints", "10,x"],
                             env=env, capture_output=True, text=True, timeout=300)
        assert bad.returncode == 1 and bad.stdout == ""
        assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1

    def test_8T44(self, capsys):
        assert run(["malle-alpha", "--label", "8T44"]) == 0
        assert capsys.readouterr().out.strip() == "1"


class TestProcessExit:
    """`main` freezes the heap before it exits, so that finalization does not
    collect it; a process still writes, flushes and exits as before."""

    @staticmethod
    def spawn(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(octicount.cli.__file__).parent.parent))
        return subprocess.run([sys.executable, "-m", "octicount", *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_json_file_is_complete(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        done = self.spawn("verify-splitting", "--group", "8T23", "--json", str(path))
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert run(["verify-splitting", "--group", "8T23", "--json", "-"]) == 0
        assert path.read_text() == capsys.readouterr().out

    def test_failed_verification_exits_1(self):
        done = self.spawn("verify-splitting", "--json", "-")
        assert done.returncode == 1 and done.stderr == ""
        parts = json.loads(done.stdout)["splitting.lemma_81.8T40"]["details"]["parts"]
        assert parts["index_set"] == "fail"

    def test_bad_option_exits_2(self):
        done = self.spawn("verify-groups", "--no-such-option")
        assert done.returncode == 2 and done.stdout == ""
        assert "unrecognized arguments: --no-such-option" in done.stderr

    def test_stamp_footer_is_written(self, capsys):
        stamped = self.spawn("verify-splitting", "--group", "8T23", "--stamp")
        assert run(["verify-splitting", "--group", "8T23"]) == 0
        assert (stamped.returncode, stamped.stdout) == (0, capsys.readouterr().out)
        assert re.fullmatch(r"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00\n",
                            stamped.stderr)

    def test_run_does_not_freeze(self, capsys):
        frozen = gc.get_freeze_count()
        assert run(["verify-splitting", "--group", "8T23"]) == 0
        assert run(["malle-alpha", "--label", "8T40"]) == 0
        assert run(["verify-groups", "--no-such-option"]) == 2
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_main_gives_openblas_one_thread_unless_set(self, monkeypatch, preset, expected):
        # setenv first, so that the test restores the variable's first state
        # even after `main` sets it.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        seen = []
        monkeypatch.setattr(octicount.cli, "run",
                            lambda argv: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")))
        monkeypatch.setattr(gc, "freeze", lambda: None)
        monkeypatch.setattr(gc, "disable", lambda: None)
        with pytest.raises(SystemExit):
            octicount.cli.main()
        assert seen == [expected]

    def test_main_runs_the_command_with_the_collector_off(self, monkeypatch):
        # A cold process exits right after its command, so cyclic collections
        # while the command works would only cost time.
        seen = []
        monkeypatch.setattr(octicount.cli, "run", lambda argv: seen.append(gc.isenabled()))
        monkeypatch.setattr(gc, "freeze", lambda: None)
        try:
            with pytest.raises(SystemExit):
                octicount.cli.main()
        finally:
            gc.enable()
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, capsys, enabled):
        # Tests and tracers call `run` in a process that goes on.
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(["malle-alpha", "--label", "8T40"]) == 0
            assert run(["verify-groups", "--no-such-option"]) == 2
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestVerifySplittingCli:
    def test_json_payload(self, capsys):
        rc = run(["verify-splitting", "--group", "8T23", "--json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {
            "splitting.lemma_splitting.8T23",
            "splitting.lemma_vpn.8T23",
        }
        assert all(v["status"] == "pass" for v in payload.values())

    def test_full_run_reports_documented_failure(self, capsys):
        # The 8T40 report carries the honest index-set failure, so the full
        # suite exits nonzero while all valuation subchecks pass.
        rc = run(["verify-splitting", "--json", "-"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        parts = payload["splitting.lemma_81.8T40"]["details"]["parts"]
        assert parts["part1_valuation"] == "pass"
        assert parts["part2_valuation"] == "pass"
        assert parts["index_set"] == "fail"

    @pytest.mark.parametrize("label", ["8T14", "8T24", "8T39", "8T44"])
    def test_group_without_a_lemma_is_usage_error(self, label, capsys):
        assert run(["verify-splitting", "--group", label, "--json", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice" in captured.err

    def test_deterministic_output(self, capsys):
        run(["verify-splitting", "--group", "8T23", "--json", "-"])
        first = capsys.readouterr().out
        run(["verify-splitting", "--group", "8T23", "--json", "-"])
        assert capsys.readouterr().out == first


class TestDataPipeline:
    def test_query_json(self, store, capsys):
        rc = run(["query", "--store", store, "--degree", "8", "--json", "-"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(r["degree"] == 8 for r in rows)

    def test_query_csv_header(self, store, capsys):
        rc = run(["query", "--store", store, "--degree", "4", "--csv"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("label,")

    def test_audit_zero_violations(self, store, capsys):
        rc = run(["audit", "--store", store, "--json", "-"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["status"] == "pass"

    def test_count_accepts_quartic_label(self, store, capsys):
        rc = run(["count", "--store", store, "--galois", "4T5,8T23",
                  "--checkpoints", "1000:100000000000:5", "--json", "-"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["labels"] == ["4T5", "8T23"]

    def test_count_checkpoints(self, store, capsys):
        rc = run(["count", "--store", store, "--galois", "8T23",
                  "--checkpoints", "1000:100000000000:5", "--json", "-"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == sorted(payload["counts"])

    def test_tail(self, store, capsys):
        rc = run(["tail", "--store", store, "--Z", "1", "--X", "1000000000"])
        assert rc == 0
        int(capsys.readouterr().out.strip())

    def test_constant_and_fit(self, store, capsys):
        rc = run(["constant", "--store", store, "--max-disc", "10000000",
                  "--prime-bound", "1000", "--json", "-"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] > 0 and payload["error_bound"] >= 0
        rc = run(["fit", "--store", store, "--max-disc", "10000000",
                  "--prime-bound", "1000", "--galois", "8T23", "--json", "-"])
        assert rc == 0
        fit = json.loads(capsys.readouterr().out)
        assert "sup_ratio" in fit and "slope" in fit
        assert fit["provenance"]

    def test_fit_default_checkpoints_reach_the_largest_octic(self, tmp_path, capsys):
        # Expanded in floats, the geometric spec for this lo and hi ended at
        # 4789302101776261750458819805184, below hi, and missed the octic at hi.
        from conftest import octic_record, persist_to, quartic_record
        from octicount.nfdata import Snapshot

        lo, hi = 141717264645719547676317371420, 4789302101776266250498516669819
        octics = [
            (lo, [(2, 2), (5, 1), (19, 1), (5449, 1), (32789, 1), (85469, 1),
                  (24422243794801, 1)]),
            (10 ** 30, [(2, 30), (5, 30)]),
            (hi, [(17, 1), (281723653045662720617559804107, 1)]),
        ]
        records = [quartic_record("K", -283, [(283, 1)])] + [
            octic_record(f"L{i}", disc, factors, "8T23", None)
            for i, (disc, factors) in enumerate(octics)
        ]
        path = tmp_path / "store.jsonl"
        persist_to(Snapshot({r.label: r for r in records}, "big-discs", ""), path)
        assert _parse_checkpoints(f"{lo}:{hi}:12")[-1] == hi
        assert run(["fit", "--store", str(path), "--max-disc", "1000",
                    "--prime-bound", "100", "--json", "-"]) == 0
        checkpoints = json.loads(capsys.readouterr().out)["checkpoints"]
        assert checkpoints[-1] == hi
        for spec in (",".join(map(str, checkpoints)), f"{lo}:{hi}:12"):
            assert run(["count", "--store", str(path), "--checkpoints", spec]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == f"{hi} 3"

    def test_byte_identical_runs(self, store, capsys):
        args = ["audit", "--store", store, "--json", "-"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        assert capsys.readouterr().out == first

    def test_stamp_goes_to_stderr_and_the_store_header_only(self, store, records_file,
                                                            capsys, tmp_path):
        stamp = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"
        args = ["tail", "--store", store, "--Z", "1", "--X", "10"]
        assert run(args) == 0
        plain = capsys.readouterr()
        assert run(args + ["--stamp"]) == 0
        stamped = capsys.readouterr()
        assert stamped.out == plain.out and plain.err == ""
        assert re.fullmatch(f"# generated {stamp}\n", stamped.err)
        out = tmp_path / "stamped.jsonl"
        assert run(["ingest", "--in", records_file, "--out", str(out), "--stamp"]) == 0
        capsys.readouterr()
        assert re.fullmatch(stamp, json.loads(out.read_text().splitlines()[0])["ingest_time"])
        assert json.loads(Path(store).read_text().splitlines()[0])["ingest_time"] == ""
