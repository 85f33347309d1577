"""Time commands at a fixed reference CPU speed on a machine whose speed drifts.

    python3 perfbench/speed.py      # the sampler; prints "ready", samples until stdin closes

The benchmark's machine is a small share of a busy host: the speed of one CPU
swings by a factor of two within seconds and stays in a slow or fast phase for
a minute or more, so wall times of the same command spread by 40-50%.  The
benchmark therefore pins itself, its commands and this sampler to one CPU.
The sampler runs a fixed pure-Python kernel every PERIOD_S seconds and records
when it started and how long it took; a slow phase slows the kernel as it
slows the command running beside it.  A command's time at reference speed is
its wall time times the mean, over the kernels run while it ran, of
REFERENCE_KERNEL_S / kernel time: the time it would take if the CPU ran at
the speed at which the kernel takes REFERENCE_KERNEL_S.  The kernel does not
depend on octicount, so a faster octicount reads faster.  The sampler costs
the commands about 3% of the CPU on every run alike.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from time import perf_counter

PERIOD_S = 0.04
REFERENCE_KERNEL_S = 0.001


def kernel() -> int:
    """Dict, list, tuple and integer work of the kind octicount's layers do."""
    counts: dict[int, int] = {}
    total = 0
    coeffs = (3, 1, 4, 1, 5)
    perm = tuple(range(8))
    shift, swap = (1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)
    for i in range(300):
        key = (i * 2654435761) & 0xFFF
        counts[key] = counts.get(key, 0) + 1
        total += len(str(key))
        other = [(c * i + 7) % 10007 for c in coeffs]
        total += sum(a * b for a, b in zip(coeffs, other)) % 10007
        perm = tuple(perm[j] for j in (shift if i & 1 else swap))
    return total + perm[0]


def sample_until_stdin_closes() -> None:
    samples = []
    due = perf_counter()
    while True:
        start = perf_counter()
        kernel()
        samples.append((start, perf_counter() - start))
        if len(samples) == 1:
            print("ready", flush=True)
        due = max(due + PERIOD_S, perf_counter())
        if select.select([sys.stdin], [], [], max(0.0, due - perf_counter()))[0]:
            break
    json.dump(samples, sys.stdout)


class SpeedSampler:
    """The sampler process, pinned with the caller to the caller's CPU."""

    def __init__(self):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # children inherit it
        self.samples: list[tuple[float, float]] = []
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("speed sampler did not start")

    def close(self) -> None:
        """Stop the sampler, wait for it to end and keep its samples."""
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed sampler exited {self.proc.returncode}")
        self.samples = [tuple(s) for s in json.loads(out)]

    def at_reference(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at reference speed."""
        inside = [d for t, d in self.samples if start <= t and t + d <= end]
        if not inside:  # shorter than a period: the nearest kernel speaks for it
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return (end - start) * sum(REFERENCE_KERNEL_S / d for d in inside) / len(inside)


if __name__ == "__main__":
    sample_until_stdin_closes()
