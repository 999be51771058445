"""Host speed probe: expresses CPU times at a fixed reference speed.

On a shared machine the speed of one core is not constant. On the 2-core
virtual machine of the baseline in README.md, the CPU time of one and the
same request switched between levels up to 1.5x apart, for stretches of
one to ten seconds, in every run. Run medians of raw times then move with
the share of the run spent at each level, by more than a bound of 25%.

A probe is a fixed piece of work of the same kind as wsvad's: forwards of
a small two-layer scorer at the workload's feature width, each building a
graph node and a dict, so the probe's mix of BLAS and interpreter work
follows the workload's. It starts with one unit that is not counted:
right after an epoch the first unit takes up to 1.5x longer, its code and
data having been pushed out of the caches, and the second no longer. The
benchmark probes right before and right after every operation it times,
or every short batch of requests. The operation's CPU time divided by the
mean probe time around it is its length in probe units, which the speed
levels leave alone because they slow both alike. Multiplied by the reference
unit time it is the CPU time the operation takes on a host where one probe
unit takes exactly that long, which is what the end-to-end metrics report.
A change to wsvad moves the operation and not the probe, so it shows in
full.

Set-up is mostly file creation, writes and reads, whose kernel CPU time
on the baseline machine moved by up to 3x between runs while the forward
probe did not. So set-ups have a probe of their own, a miniature set-up:
generate, save, load back and delete 16 bags with NumPy, in the run's
work directory.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from time import process_time

import numpy as np

# CPU seconds of one probe unit at the reference speed, by feature width:
# round figures near what a unit takes on the baseline machine (Intel Xeon,
# 2 vCPUs, Python 3.11.7, NumPy 2.4.6 with scipy-openblas 0.3.31, one BLAS
# thread). They only scale the metrics; any fixed values would do.
REFERENCE_UNIT_S = {64: 150e-6, 2048: 450e-6}
# forwards in one probe unit, by feature width: about 0.15 ms and 0.45 ms
FORWARDS_PER_UNIT = {64: 8, 2048: 2}
# units counted in one probe, after the warm-up unit
PROBE_UNITS = 2
# CPU seconds of one set-up probe at the reference speed, by feature width
REFERENCE_SETUP_PROBE_S = {64: 5e-3, 2048: 25e-3}
SETUP_PROBE_FILES = 16
BAG_CLIPS = 32
HIDDEN = 64


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


class HostSpeed:
    """Both probes of one run, with the CPU seconds of each probe taken
    (per unit for the forward probe) and the CPU seconds spent probing."""

    def __init__(self, feature_dim: int, work_dir: Path):
        self.reference_unit_s = REFERENCE_UNIT_S[feature_dim]
        self.reference_setup_probe_s = REFERENCE_SETUP_PROBE_S[feature_dim]
        self._setup_files = [work_dir / f"setup_probe_{i}.npy" for i in range(SETUP_PROBE_FILES)]
        self._forwards = FORWARDS_PER_UNIT[feature_dim]
        rng = np.random.default_rng(2310)
        self._x = rng.standard_normal((BAG_CLIPS, feature_dim))
        self._w1 = rng.standard_normal((feature_dim, HIDDEN)) * 0.05
        self._w2 = rng.standard_normal((HIDDEN, 1)) * 0.05
        self.unit_seconds: list[float] = []
        self.setup_probe_seconds: list[float] = []
        self.spent = 0.0

    def _forwards_of(self, count: int) -> float:
        nodes: list[_Node] = []
        total = 0.0
        for _ in range(count):
            h = np.maximum(self._x @ self._w1, 0.0)
            s = 1.0 / (1.0 + np.exp(-(h @ self._w2)))
            nodes.append(_Node(s, tuple(nodes[-2:])))
            table = {i: float(v) for i, v in enumerate(s[:16, 0])}
            total += sum(table.values())
        return total + len(nodes)

    def probe(self) -> float:
        """Warm up, then run PROBE_UNITS probe units; return CPU seconds per unit."""
        warm_start = process_time()
        self._forwards_of(self._forwards)
        start = process_time()
        self._forwards_of(PROBE_UNITS * self._forwards)
        end = process_time()
        self.spent += end - warm_start
        self.unit_seconds.append((end - start) / PROBE_UNITS)
        return self.unit_seconds[-1]

    def _setup_unit(self) -> float:
        rng = np.random.default_rng(2310)
        d = self._x.shape[1]
        for path in self._setup_files:
            np.save(path, (0.5 + 0.3 * rng.standard_normal((BAG_CLIPS, d))).astype(np.float32))
        total = 0.0
        for path in self._setup_files:
            total += float(np.load(path).astype(np.float64)[0, 0])
        for path in self._setup_files:
            os.remove(path)
        return total

    def probe_setup(self) -> float:
        """Warm up, then one set-up probe; return its CPU seconds."""
        warm_start = process_time()
        self._setup_unit()
        start = process_time()
        self._setup_unit()
        end = process_time()
        self.spent += end - warm_start
        self.setup_probe_seconds.append(end - start)
        return end - start

    def setup_at_reference(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of set-up CPU time between set-up probes that took
        ``before`` and ``after``, as CPU seconds at the reference speed."""
        return seconds / ((before + after) / 2) * self.reference_setup_probe_s

    def at_reference(self, seconds: float, *unit_seconds: float) -> float:
        """``seconds`` of CPU time, measured between probes that took
        ``unit_seconds`` per unit, as CPU seconds at the reference speed."""
        return seconds / statistics.fmean(unit_seconds) * self.reference_unit_s

    def run_factor(self) -> float:
        """Reference unit time over this run's median unit time: the factor
        that puts a time measured anywhere in the run at the reference speed."""
        return self.reference_unit_s / statistics.median(self.unit_seconds)
