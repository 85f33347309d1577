"""Guards on the package source itself."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import persist_to, record_json_line
import octicount

SOURCES = sorted(Path(octicount.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a correctness check written as
    # one silently disappears; the package raises explicit exceptions instead.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _nodes_by_function(path: Path) -> list[tuple[str, ast.AST]]:
    """Every node of a source file with the name of the innermost function
    that holds it ("" at module level)."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else owner
            out.append((inner, child))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _opens_for_writing(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "open")):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
    # A mode that is not a literal counts as a write.
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def test_one_place_opens_files_for_writing():
    # Every output file is written through a temporary file, opened before
    # the work, that replaces the path only on success.  persist's own
    # mechanism once opened its file only after validating every record.
    found = [f"{path.stem}.{owner}" for path in SOURCES
             for owner, node in _nodes_by_function(path) if _opens_for_writing(node)]
    assert found == ["cli._output_opened_first"]


def test_nfdata_takes_only_the_kernel_from_analytic():
    # Which (f, p) pairs are lanes is decided inside `analytic._frobenius_lanes`
    # alone; nfdata once imported the lane rule and the discriminant to
    # filter its primes itself.
    nfdata = Path(octicount.__file__).parent / "nfdata.py"
    found = []
    for _, node in _nodes_by_function(nfdata):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("analytic"):
                found += [alias.name for alias in node.names]
            found += [alias.name for alias in node.names if alias.name == "analytic"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.endswith("analytic")]
    assert found == ["_frobenius_lanes"]


def test_kernel_callers_pass_polys_and_one_prime_list():
    # `analytic._frobenius_lanes` takes the polynomials and one ascending
    # prime list for all of them; it once took rows (f, primes), although
    # both of its callers sent every polynomial the same primes.
    from octicount.analytic import _frobenius_lanes

    assert list(inspect.signature(_frobenius_lanes).parameters) == ["polys", "primes"]
    found = [(f"{path.stem}.{owner}", [type(arg).__name__ for arg in node.args], node.keywords)
             for path in SOURCES for owner, node in _nodes_by_function(path)
             if isinstance(node, ast.Call) and "_frobenius_lanes" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == [("analytic._local_factors", ["Name", "Name"], []),
                     ("nfdata._irreducibility", ["Name", "Name"], [])]


def test_only_perms_intersects_subgroup_conjugates():
    # A class's core, the intersection of its conjugates, is read from
    # `SubgroupClass.core_order`; verify once intersected them itself.  The
    # conjugates are read as `Perm` sets or as the `members`' element numbers.
    found = []
    for path in SOURCES:
        for owner, node in _nodes_by_function(path):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "intersection"
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
                if any(isinstance(sub, ast.Attribute) and sub.attr in ("conjugates", "members")
                       for sub in ast.walk(node)):
                    found.append(f"{path.stem}.{owner}")
    assert found == ["perms.core_order"]


def test_only_catalog_reads_s4_images():
    # Whether a group maps onto S4 is read from the lattice in one place:
    # `catalog.quartic_subgroups` keeps an index-4 class when |G| = 24 |core|.
    # verify once built each quotient of order 24 and tested it against S4.
    quotient_route = {"normal_subgroups", "quotient_as_perm"}
    named, compared = [], []
    for path in SOURCES:
        for owner, node in _nodes_by_function(path):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in quotient_route and path.stem != "perms":
                named.append(f"{path.stem}.{owner}")
            if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Constant) and sub.value == 24  # |S4|
                    for sub in ast.walk(node)):
                compared.append(f"{path.stem}.{owner}")
    assert (named, compared) == ([], ["catalog.quartic_subgroups"])


def test_command_handlers_write_nothing():
    # Each `_cmd_*` returns its payload, text lines and exit code; `run`
    # alone writes them, so --json, the text form and --stamp agree everywhere.
    cli = Path(octicount.__file__).parent / "cli.py"
    nodes = _nodes_by_function(cli)
    assert any(owner.startswith("_cmd_") for owner, _ in nodes)
    writers = {"sys.stdout", "sys.stderr", "json.dumps", "_emit", "print"}
    found = [f"{owner}: {ast.unparse(node)}" for owner, node in nodes
             if owner.startswith("_cmd_")
             and isinstance(node, (ast.Name, ast.Attribute))
             and ast.unparse(node) in writers]
    assert found == []


def _settable_options() -> list[str]:
    """Function parameters with a default, fields with a default in a class
    decorated `dataclass` or derived from `NamedTuple`, and `add_argument`
    calls, over the package source."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                found += [f"{path.stem}.{node.name}({a.arg})"
                          for a in positional[len(positional) - len(args.defaults):]]
                found += [f"{path.stem}.{node.name}({a.arg})"
                          for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            elif isinstance(node, ast.ClassDef) and (
                    any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                    or any("NamedTuple" in ast.unparse(b) for b in node.bases)):
                found += [f"{path.stem}.{node.name}.{ast.unparse(stmt.target)}"
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and stmt.value]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                found.append(f"{path.stem}:{node.lineno} {ast.unparse(node.args[0])}")
    return found


def test_settable_options_stay_few():
    # Every default is a choice some caller might rely on.  A change that
    # adds an option raises this bound in its own diff and says why.
    options = _settable_options()
    assert len(options) <= 30, options


def test_every_exported_name_resolves():
    unresolved = []
    for path in SOURCES:
        name = "octicount" if path.stem == "__init__" else f"octicount.{path.stem}"
        module = importlib.import_module(name)
        unresolved += [f"{path.name}:{attr}" for attr in getattr(module, "__all__", ())
                       if not hasattr(module, attr)]
    assert unresolved == []


# Runs each command in turn in one fresh interpreter and records, after the
# bare import and after each command, its exit code, whether sympy and numpy
# have been imported, and which of the lazily registered package modules have
# run.  Those are in `sys.modules` from package import on, but a module that
# `LazyLoader` has not run yet is not a `types.ModuleType` (`type`, unlike
# `isinstance`, reads no attribute, so it runs nothing).
LAZY_MODULES = ("perms", "catalog", "splitting", "verify", "nfdata", "analytic", "counting")
SYMPY_PROBE = """
import json, sys, types
from octicount.cli import run
def ran():
    return [name for name in %r if type(sys.modules["octicount." + name]) is types.ModuleType]
seen = [["import", 0, "sympy" in sys.modules, "numpy" in sys.modules, ran()]]
for argv in json.loads(sys.argv[1]):
    seen.append([argv[0], run(argv), "sympy" in sys.modules, "numpy" in sys.modules, ran()])
with open(sys.argv[2], "w") as fh:
    json.dump(seen, fh)
""" % (LAZY_MODULES,)


def _imports_seen(tmp_path, commands: list[list[str]]) -> list[list]:
    """Run the commands in one fresh interpreter; (name, exit code, sympy
    loaded, numpy loaded, package modules run) after the bare import and
    after each command."""
    result = tmp_path / "seen.json"
    env = dict(os.environ, PYTHONPATH=str(Path(octicount.__file__).parent.parent))
    subprocess.run([sys.executable, "-c", SYMPY_PROBE, json.dumps(commands), str(result)],
                   env=env, check=True, capture_output=True, timeout=600)
    seen = json.loads(result.read_text())
    assert [row[0] for row in seen] == ["import"] + [argv[0] for argv in commands]
    return seen


def test_no_command_imports_sympy(tmp_path, model_snapshot):
    # sympy is the answer only for the exact factorization fallback and for
    # primality above 3.3e24; no command on the model towers needs either.
    # numpy is for the Frobenius-trace kernel only: the irreducibility
    # prescreen of `ingest`, and the quartic Euler factors of constant and
    # fit.  The commands that read a sealed store run in a second fresh
    # interpreter, so each is seen before anything could have loaded numpy.
    infile, store = tmp_path / "in.jsonl", str(tmp_path / "store.jsonl")
    infile.write_text("".join(record_json_line(r) + "\n"
                              for r in model_snapshot.records.values()))
    on_store = ["--store", store]
    first = _imports_seen(tmp_path, [
        ["verify-groups"],
        ["verify-splitting"],
        ["malle-alpha", "--label", "8T40"],
        ["ingest", "--in", str(infile), "--out", store],
    ])
    # verify-splitting exits 1 on the documented 8T40 index-set subcheck.
    assert [code for _, code, _, _, _ in first] == [0, 0, 1, 0, 0]
    assert [name for name, _, loaded, _, _ in first if loaded] == []
    assert [name for name, _, _, loaded, _ in first if loaded] == ["ingest"]
    second = _imports_seen(tmp_path, [
        ["audit", *on_store],
        ["count", *on_store, "--checkpoints", "1000:100000000000:5"],
        ["query", *on_store],
        ["tail", *on_store, "--Z", "1", "--X", "1000000000"],
        ["constant", *on_store, "--max-disc", "10000000", "--prime-bound", "1000"],
        ["fit", *on_store, "--max-disc", "10000000", "--prime-bound", "1000"],
    ])
    assert [code for _, code, _, _, _ in second] == [0] * 7
    assert [name for name, _, loaded, _, _ in second if loaded] == []
    assert [name for name, _, _, loaded, _ in second if loaded] == ["constant", "fit"]


def test_each_command_runs_only_its_own_modules(tmp_path, model_snapshot):
    # Each command runs alone in a fresh interpreter, and only the package
    # modules it reads have run after it: a bare import runs none of them.
    # `counting` names `analytic.PartialConstant` only for type checkers.
    infile, store = tmp_path / "in.jsonl", str(tmp_path / "store.jsonl")
    infile.write_text("".join(record_json_line(r) + "\n"
                              for r in model_snapshot.records.values()))
    on_store = ["--store", store]
    on_model = [*on_store, "--max-disc", "10000000", "--prime-bound", "1000"]
    table = [
        (["verify-groups"], 0, ["perms", "catalog", "verify"]),
        (["verify-splitting"], 1, ["perms", "catalog", "splitting"]),
        (["malle-alpha", "--label", "8T40"], 0, ["perms", "catalog"]),
        (["ingest", "--in", str(infile), "--out", store], 0, ["nfdata", "analytic"]),
        (["constant", *on_model], 0, ["nfdata", "analytic"]),
        (["fit", *on_model], 0, ["nfdata", "analytic", "counting"]),
        (["audit", *on_store], 0, ["nfdata", "counting"]),
        (["count", *on_store, "--checkpoints", "1000:100000000000:5"], 0, ["nfdata", "counting"]),
        (["tail", *on_store, "--Z", "1", "--X", "1000000000"], 0, ["nfdata", "counting"]),
        (["query", *on_store], 0, ["nfdata"]),
    ]
    seen = [_imports_seen(tmp_path, [argv]) for argv, _, _ in table]
    assert [(bare[4], row[1], row[4]) for bare, row in seen] == [
        ([], code, ran) for _, code, ran in table]


def test_importing_the_cli_generates_no_code(tmp_path):
    # Every record class is a tuple or a plain class: `dataclasses`, and the
    # `inspect` it pulls in, once cost every command about 16 ms of start-up.
    probe = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(Path(octicount.__file__).parent.parent))
    subprocess.run([sys.executable, "-c",
                    "import json, sys; import octicount.cli; "
                    "json.dump(sorted(sys.modules), open(sys.argv[1], 'w'))", str(probe)],
                   env=env, check=True, capture_output=True, timeout=600)
    loaded = set(json.loads(probe.read_text()))
    assert "octicount.cli" in loaded
    assert sorted({"dataclasses", "inspect"} & loaded) == []
    # Only a geometric checkpoint spec reads `fractions`, which loads `decimal`.
    assert sorted({"decimal", "fractions"} & loaded) == []


def _plain_and_traced(tmp_path, argv: list[str]) -> dict:
    """Run one command plainly and under perfbench/traced_cli.py; require the
    same stdout and exit code, and return the trace."""
    repo = Path(octicount.__file__).parent.parent.parent
    bench = repo / "perfbench"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(repo / "src"), str(bench)]))
    trace = tmp_path / "t.json"
    plain = subprocess.run(
        [sys.executable, "-c", "from octicount.cli import main; main()", *argv],
        env=env, capture_output=True, text=True, timeout=300)
    traced = subprocess.run(
        [sys.executable, str(bench / "traced_cli.py"), str(trace), *argv],
        env=env, capture_output=True, text=True, timeout=300)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout != ""
    return json.loads(trace.read_text())


def test_benchmark_tracer_hooks_resolve(tmp_path):
    # perfbench/tracer.py wraps package names given as strings, so deleting or
    # renaming one breaks `perfbench/run.py --trace 1` without any other test
    # failing.  Run one traced command next to the plain one.
    assert "root" in _plain_and_traced(tmp_path, ["malle-alpha", "--label", "8T40"])["spans"]


def test_benchmark_tracer_hooks_resolve_on_a_data_command(tmp_path, model_snapshot):
    # A data command runs no group module, so the tracer's own lookups are
    # the first to read them; a tracer that found them missing from
    # `sys.modules` once failed every traced data command.
    store = tmp_path / "model.jsonl"
    persist_to(model_snapshot, store)
    spans = _plain_and_traced(tmp_path, ["audit", "--store", str(store)])["spans"]
    assert spans["counting.audit_lemmas"][0] == 1


def test_benchmark_tracer_counts_group_work(tmp_path):
    # The tracer also patches `Perm.__mul__` and the closure behind
    # `PermGroup.elements`; a group core that bypasses them leaves the work
    # counters at zero while stdout still matches.
    counts = _plain_and_traced(tmp_path, ["verify-splitting", "--group", "8T23"])["counts"]
    assert counts["splitting.configs.count"] == 19
    assert counts["perms.closure.count"] > 0 and counts["perms.mul.count"] > 0
