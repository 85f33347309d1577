"""octicount benchmark: cold CLI commands on seeded inputs.

    python3 perfbench/run.py --workload {groups,euler,store} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Every octicount command runs as a
fresh process (PYTHONPATH=src), one at a time, because users pay the lazy
closures, lattices and caches on every invocation.  Each output is checked
against values the benchmark computed itself.  See perfbench/README.md.

--trace 0 times rounds of the workload's commands until the next round would
end after S seconds (at least one round) and reports the end-to-end metrics,
every time converted to seconds at a fixed reference CPU speed (speed.py).
--trace 1 runs each command once plainly and once under perfbench/tracer.py
and reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import tracer
import workloads
from speed import REFERENCE_KERNEL_S, SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

END_TO_END = ("setup_s", "commands_s", "peak_rss_mb")
PER_LAYER = (
    "perms.subgroup_classes.calls", "perms.subgroup_classes.self_s",
    "perms.normal_subgroups.calls", "perms.normal_subgroups.self_s",
    "perms.abstract_isomorphic.calls", "perms.abstract_isomorphic.self_s",
    "perms.abstract_isomorphic.hit_ratio",
    "perms.perm_isomorphic.calls", "perms.perm_isomorphic.self_s",
    "perms.perm_isomorphic.hit_ratio",
    "perms.coset_action.calls", "perms.coset_action.self_s",
    "perms.quotient_as_perm.calls", "perms.quotient_as_perm.self_s",
    "perms.closure.count", "perms.closure.elements", "perms.mul.count",
    "catalog.quartic_subgroups.calls", "catalog.quartic_subgroups.self_s",
    "catalog.quartic_action.self_s", "catalog.octic_action.self_s",
    "verify.classification.s", "verify.converse.s", "verify.a8_containment.s",
    "verify.table1.s", "verify.s4_unique_octic.s",
    "splitting.enumerate_tame_configs.self_s", "splitting.configs.count",
    "splitting.splitting_symbol.calls", "splitting.splitting_symbol.self_s",
    "splitting.valuation_profile.calls", "splitting.valuation_profile.self_s",
    "nfdata.ingest_lines.self_s", "nfdata.validate.calls", "nfdata.validate.self_s",
    "nfdata.irreducible.cache_hit_ratio", "nfdata.persist.self_s", "nfdata.load.self_s",
    "nfdata.query.self_s",
    "analytic.factor_mod_p.calls", "analytic.factor_mod_p.self_s",
    "analytic.local_factor_data.self_s", "analytic.zeta_K_at_2.calls",
    "analytic.zeta_K_at_2.self_s", "analytic.zeta_residue.self_s",
    "analytic.partial_constant.self_s", "analytic.primes_trusted",
    "analytic.primes_untrusted",
    "counting.audit_lemmas.self_s", "counting.split_rel_disc.calls",
    "counting.count_series.self_s", "counting.fit_error.self_s",
    "trace.overhead_ratio", "trace.unattributed_share",
)


@dataclass
class Sample:
    start: float
    end: float
    max_rss_kb: int
    exit_code: int
    stdout: str
    stderr: str


class Runner:
    """Spawns Python processes in the work directory and times each one."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        src = os.path.join(ROOT, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def spawn(self, args: list[str]) -> Sample:
        """Run `python3 ARGS` to completion, timed from spawn to exit."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise TimeoutError("benchmark time limit reached")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable] + args, stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if perf_counter() >= self.deadline:
            raise TimeoutError("benchmark time limit reached")
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return Sample(start, end, usage.ru_maxrss, proc.returncode, out.read(), err.read())

    def octicount(self, args: list[str], trace_path: str | None = None) -> Sample:
        if trace_path is None:
            return self.spawn([os.path.join(HERE, "octicount_cli.py")] + args)
        return self.spawn([os.path.join(HERE, "traced_cli.py"), trace_path] + args)

    def prepare(self, args: list[str]) -> None:
        """Untimed set-up command, such as ingesting a store the commands read."""
        sample = self.octicount(args)
        if sample.exit_code != 0:
            raise RuntimeError(f"set-up command {args} exited {sample.exit_code}: "
                               f"{sample.stderr.strip()}")


class Ledger:
    """Checks every invocation and counts the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.first_stdout: dict[str, str] = {}

    def record(self, cmd: workloads.Command, sample: Sample) -> None:
        self.attempted += 1
        try:
            workloads.expect(sample.exit_code == cmd.exit_code,
                             f"exit code {sample.exit_code}, expected {cmd.exit_code}: "
                             f"{sample.stderr.strip()[-500:]}")
            cmd.check(sample.stdout)
            first = self.first_stdout.setdefault(cmd.metric, sample.stdout)
            workloads.expect(sample.stdout == first, "stdout differs from the first sample")
        except (workloads.CheckError, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{cmd.metric}: {exc}")


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "p-high n/a (needs 11 samples)"
    k = n - 10
    return f"p{100 * k // n}={sorted(values)[k - 1]:.4f}"


def median_line(name: str, values: list[float], raw: list[float]) -> str:
    return (f"{name}: median {statistics.median(values):.4f} s at reference speed, "
            f"n={len(values)}, {high_percentile(values)} "
            f"(wall median {statistics.median(raw):.4f} s)")


def measure(runner: Runner, commands, seconds: float, ledger: Ledger,
            sampler: SpeedSampler) -> dict:
    runner.spawn(["-c", "import octicount.cli"])  # compiles bytecode; not timed
    setup = [runner.spawn(["-c", "import octicount.cli"]) for _ in range(SETUP_SAMPLES)]
    rounds: list[list[Sample]] = []
    start = perf_counter()
    while True:
        rounds.append([])
        for cmd in commands:
            sample = runner.octicount(cmd.args)
            ledger.record(cmd, sample)
            rounds[-1].append(sample)
        round_s = statistics.median(r[-1].end - r[0].start for r in rounds)
        if perf_counter() - start + round_s > seconds:
            break
    sampler.close()

    def at_reference(samples: list[Sample]) -> list[float]:
        return [sampler.at_reference(s.start, s.end) for s in samples]

    def wall(samples: list[Sample]) -> list[float]:
        return [s.end - s.start for s in samples]

    kernel_ms = statistics.median(d for _, d in sampler.samples) * 1000
    print(f"speed kernel: median {kernel_ms:.4f} ms over {len(sampler.samples)} samples, "
          f"reference {REFERENCE_KERNEL_S * 1000:.4f} ms")
    print(median_line("setup_s", at_reference(setup), wall(setup)))
    for i, cmd in enumerate(commands):
        samples = [r[i] for r in rounds]
        print(median_line(cmd.metric, at_reference(samples), wall(samples)))
    return {
        "setup_s": (statistics.median(at_reference(setup)), "s"),
        "commands_s": (statistics.median(sum(at_reference(r)) for r in rounds), "s"),
        "peak_rss_mb": (max(s.max_rss_kb for r in rounds for s in r) / 1024.0, "MB"),
    }


def trace(runner: Runner, commands, ledger: Ledger, sampler: SpeedSampler) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    pairs = []
    trace_path = os.path.join(runner.workdir, "trace.json")
    for cmd in commands:
        plain = runner.octicount(cmd.args)
        ledger.record(cmd, plain)
        traced = runner.octicount(cmd.args, trace_path)
        ledger.record(cmd, traced)  # also checks that tracing left stdout unchanged
        pairs.append((plain, traced))
        with open(trace_path, encoding="utf-8") as fh:
            got = json.load(fh)
        for name, stats in got["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(stats):
                acc[i] += v
        for name, n in got["counts"].items():
            counts[name] = counts.get(name, 0) + n
    sampler.close()
    plain_s, traced_s = (sum(sampler.at_reference(p[k].start, p[k].end) for p in pairs)
                         for k in (0, 1))
    out = {name: layer_metric(name, spans, counts)
           for name in PER_LAYER if not name.startswith("trace.")}
    _, root_total, root_self = spans[tracer.ROOT]
    out["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    out["trace.unattributed_share"] = (root_self / root_total, "ratio")
    return out


def layer_metric(name: str, spans: dict, counts: dict) -> tuple[float, str]:
    base, _, field = name.rpartition(".")
    if name == "nfdata.irreducible.cache_hit_ratio":
        hits, misses = counts["nfdata.irreducible.hits"], counts["nfdata.irreducible.misses"]
        return (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    if field == "calls":
        return (spans[base][0], "count")
    if field == "s":
        return (spans[base][1], "s")
    if field == "self_s":
        return (spans[base][2], "s")
    if field == "hit_ratio":
        calls = spans[base][0]
        return (counts.get(base + ".hits", 0) / calls if calls else 0.0, "ratio")
    return (counts.get(name, 0), "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "octicount", "cli.py")):
        print(f"error: no octicount sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIME_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    ledger = Ledger()
    sampler = None
    try:
        runner = Runner(workdir, deadline)
        sampler = SpeedSampler()
        commands = workloads.WORKLOADS[args.workload](args.seed, workdir, runner.prepare)
        if args.trace:
            metrics = trace(runner, commands, ledger, sampler)
        else:
            metrics = measure(runner, commands, args.seconds, ledger, sampler)
    finally:
        if sampler is not None:
            sampler.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(f"failed_ops: {len(ledger.failures)}/{ledger.attempted} "
          f"(share {len(ledger.failures) / ledger.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    correct = not ledger.failures
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
