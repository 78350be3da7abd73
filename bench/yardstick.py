"""Host-speed yardstick: a fixed kernel of the benchmark's own, run in short
slices between calls into the program, so that rates can be given at one
reference host speed.

On a shared virtual machine the same code runs up to 1.8x slower in phases
of a few seconds to minutes, with thread CPU time tracking wall time: the
cores themselves slow down, so neither longer runs nor CPU clocks remove it.
A slice interleaved with the program every ``gap_s`` seconds slows down
with it.  :meth:`Yardstick.program_seconds` takes an interval of program
work, removes the slices run inside it, and scales the rest by the
reference slice cost over the mean cost of those slices.  A change to the
program moves the interval and leaves the slices alone.

The kernel mixes what the program spends its time on: small array
gathers, ``np.add.at`` scatters, reductions and matrix products, and
interpreter-bound object, dict and string work.  A slice is timed with
the CPU clock of its thread, so on a worker thread it leaves out waits for
the interpreter lock.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import threading
import time
from typing import NamedTuple

import numpy as np

from spans import Patches

# Mean slice cost on the reference host: a 2-vCPU Xeon VM in a fast phase.
REF_SLICE_S = 1.5e-3


class Slice(NamedTuple):
    start: float
    end: float
    cpu: float


@dataclasses.dataclass
class _Record:
    key: int
    weight: float
    label: str


_PAIR = re.compile(r"(\w+)=(\d+)")
_DOC = {f"k{i}": [i, i * 0.5, f"v{i}", {"x": i}] for i in range(40)}
_FEATURES = np.random.default_rng(0).standard_normal((8, 28, 28))
_MATRIX = np.random.default_rng(1).standard_normal((48, 48)) * 0.1


def kernel(steps: int = 4) -> float:
    """The fixed work of one slice: on the reference host about 1.5 ms between
    calls into the program, which leave its caches cold, and 0.9 ms back to back.

    It spreads over many code paths, as the program does: a kernel looping
    over a few lines tracks the host's slowdowns only in part (the same
    program phase slowed 1.6 to 1.8 times more, in log terms, than a tight
    matrix-and-dict loop, and 0.95 times as much as this one).
    """
    acc = 0.0
    for i in range(steps):
        acc += len(json.loads(json.dumps(_DOC)))
        acc += sum(int(m.group(2)) for m in _PAIR.finditer("a=1 b=22 c=333 d=4444 " * 5))
        recs = sorted((_Record(j, j * 0.1, f"r{j:03d}") for j in range(60)), key=lambda r: (-r.weight, r.label))
        acc += recs[0].key + len("".join(r.label for r in recs))
        ys = 3 + i + (np.arange(14) + 0.5) * 0.6
        xs = 5 + (np.arange(14) + 0.5) * 0.7
        y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
        grid = _FEATURES[:, y0[:, None], x0[None, :]] * (ys - y0)[:, None]
        back = np.zeros_like(_FEATURES)
        np.add.at(back, (slice(None), y0[:, None], x0[None, :]), grid)
        e = np.exp(np.einsum("cij,cij->c", grid, grid) * -0.01)
        p = e / e.sum()
        acc += float(np.where(p > 0.1, p, 0).sum() + np.argsort(p)[0] + np.concatenate([p, p]).mean())
        acc += float(np.tanh(_MATRIX @ _MATRIX[:, :8]).sum() + back[0, 0, 0])
    return acc


class Yardstick:
    def __init__(self, gap_s: float = 0.02) -> None:
        self.gap_s = gap_s
        self.slices: list[Slice] = []
        self._last = threading.local()
        self._patches = Patches()

    def run_slice(self) -> None:
        start, cpu0 = time.perf_counter(), time.thread_time()
        kernel()
        cpu, end = time.thread_time() - cpu0, time.perf_counter()
        self.slices.append(Slice(start, end, cpu))
        self._last.end = end

    def probe_before(self, fn):
        """Return ``fn`` with a slice run before a call, at most every ``gap_s`` per thread."""

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if time.perf_counter() - getattr(self._last, "end", 0.0) >= self.gap_s:
                self.run_slice()
            return fn(*args, **kwargs)

        return probed

    def patch(self, owner, attr: str) -> None:
        self._patches.replace(owner, attr, self.probe_before)

    def unpatch_all(self) -> None:
        self._patches.restore_all()

    def inside(self, start: float, end: float) -> list[Slice]:
        return [s for s in self.slices if start <= s.start and s.end <= end]

    def program_seconds(self, start: float, end: float) -> float:
        """Seconds of program work in ``[start, end]`` at the reference host speed.

        The slices inside the interval, on any thread, are taken out of it
        and give the host speed; an interval with none is a benchmark fault.
        """
        inside = self.inside(start, end)
        if not inside:
            raise RuntimeError(f"no yardstick slice in an interval of {end - start:.3f} s")
        cpu = sum(s.cpu for s in inside)
        return (end - start - cpu) * REF_SLICE_S * len(inside) / cpu
