"""Reference loops that rescale wall times to a fixed machine speed.

The host's CPU speed drifts by 20-40% over seconds to minutes, and that drift
moves every wall time the benchmark takes. A reference loop of the same kind
of work, timed right beside each job, slows by the same share, so

    scaled time = wall time * nominal loop time / measured loop time

reads the job's time at a fixed reference speed. The loops are the
benchmark's own code and never call biflag, so a change to the program
moves the scaled time exactly as it moves the wall time.

Three loops, and each workload sums those that match its work (``PARTS``):
``py`` builds and validates frozen dataclasses and does float math (the
interpreter work of the closed form, sweeps and calibration); ``np``
evaluates a waveform on a 257 x 129 grid (the oracle's quadrature);
``spawn`` starts a fresh interpreter that imports numpy and yaml (the start-up
of a CLI process, whose time moves with the host's process and file costs
more than with its CPU speed).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from time import perf_counter

# Seconds of one sample of each loop at the reference speed, about their
# median on the 2-vCPU host where the benchmark was defined.
NOMINAL_S = {"py": 0.65e-3, "np": 1.3e-3, "spawn": 0.25}
PARTS = {"freq-grid": ("py",), "geom-search": ("py",),
         "oracle-xcheck": ("py", "np"), "cli-cold": ("spawn",)}


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(name)


def _py_loop() -> float:
    point, acc = _Point(1.0, 2.0, 3.0), 0.0
    for i in range(130):
        q = replace(point, a=i * 0.01)
        acc += math.sqrt(q.a * q.a + q.b) * math.cos(q.c) + math.log1p(q.a)
        acc += {"x": acc, "y": q.b}["y"] * 1e-9
    return acc


class Calibration:
    """Times the reference loops of one workload."""

    def __init__(self, workload: str):
        self.loops = []
        if "py" in PARTS[workload]:
            self.loops.append(_py_loop)
        if "spawn" in PARTS[workload]:
            env = dict(os.environ)
            env.pop("BIFLAG_THREADS", None)
            self.loops.append(lambda: subprocess.run(
                [sys.executable, "-c", "import numpy, yaml"], env=env,
                check=True, capture_output=True))
        if "np" in PARTS[workload]:
            import numpy as np
            grid = np.linspace(0.0, 1.0, 257)[:, None] * np.linspace(0.0, 1.0, 129)

            def np_loop() -> float:
                y = np.sin(grid * 6.0 + 1.0)
                return float((y / np.sqrt(1.0 + y * y)).mean())
            self.loops.append(np_loop)
        self.nominal = sum(NOMINAL_S[part] for part in PARTS[workload])

    def slowness(self) -> float:
        """Measured loop time over nominal: 1.2 means 20% slower than reference."""
        start = perf_counter()
        for loop in self.loops:
            loop()
        return (perf_counter() - start) / self.nominal


def local_median(values: list[float], half: int = 2) -> list[float]:
    """Median of each value and its ``half`` neighbours on either side."""
    out = []
    for i in range(len(values)):
        window = sorted(values[max(0, i - half):i + half + 1])
        out.append(window[len(window) // 2])
    return out
