"""Benchmark workloads and their seeded scenario generator.

Each workload is a bundled experiment rolled in one controller mode over
a fixed window. The generator rewrites a few numeric fields of the
bundled YAML text from a seed; the program only ever sees the resulting
text. Seed 0 returns the bundled text unchanged.

Why these three (each loads some layers and bypasses others):

  step_single   one QP level; the lunge at t = 1 s brings a burst of
                stage-0 phase-1 solves and long level-1 active-set runs.
                Exercises qpcore and stage 0, bypasses cascade levels 2-3.
  step_cascade  the full three-level cascade with slack plus the stage-0
                phase-1 tail: the heaviest period.
  sine_safety   stationary periodic wrench through the tau_ext path of
                every row builder; three levels, never phase-1, so
                dynamics and row assembly take the largest share.

The step windows hold the lunge and its transient; the quiet tail after
about 3 s would add time without adding behaviour.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str      # bundled experiment name
    mode: str          # controller mode the cell runs
    window_s: float    # simulated seconds per rollout

    @property
    def energy_bounded(self) -> bool:
        """Modes whose energy row is hard, so K <= k_max must hold."""
        return self.mode in ("single_qp", "hqp_safety")


WORKLOADS = {w.name: w for w in (
    Workload("step_single", "step", "single_qp", 3.0),
    Workload("step_cascade", "step", "hqp_performance", 3.0),
    Workload("sine_safety", "sine", "hqp_safety", 2.0),
)}

DEFAULT_SEED = 0

# Perturbation ranges. Every joint of the bundled home pose sits at least
# 0.5 rad inside its limits, so the initial-pose ball stays inside them.
Q0_RADIUS = 0.02       # rad, Euclidean ball around the bundled initial_q
SCALE_SPREAD = 0.05    # step offset, sine amplitude and k_max: x(1 +- 0.05)

_FLOAT_LIST = r"\[([^\]]*)\]"


def _fmt(x: float) -> str:
    return repr(float(x))


def _replace_once(text: str, pattern: str, repl) -> str:
    out, count = re.subn(pattern, repl, text, flags=re.MULTILINE)
    if count != 1:
        raise ValueError(f"expected exactly one match of {pattern!r} in the "
                         f"bundled scenario, found {count}")
    return out


def _ball_offset(rng: random.Random, n: int, radius: float) -> list[float]:
    """Uniform sample from the n-dimensional ball of the given radius."""
    d = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = math.sqrt(sum(v * v for v in d)) or 1.0
    r = radius * rng.random() ** (1.0 / n)
    return [r * v / norm for v in d]


def scenario_text(bundled: str, scenario: str, seed: int) -> str:
    """The workload's scenario as YAML text, perturbed by `seed`.

    Seed 0 reproduces the bundled text exactly. Other seeds move
    initial_q inside a small ball, scale k_max, and scale the step
    offset (step) or the wrench amplitude (sine).
    """
    if seed == DEFAULT_SEED:
        return bundled
    rng = random.Random(seed)

    def scale() -> float:
        return 1.0 + rng.uniform(-SCALE_SPREAD, SCALE_SPREAD)

    def new_q(m: re.Match) -> str:
        q = [float(v) for v in m.group(2).split(",")]
        dq = _ball_offset(rng, len(q), Q0_RADIUS)
        return m.group(1) + "[" + ", ".join(_fmt(a + b) for a, b in zip(q, dq)) + "]"

    text = _replace_once(bundled, r"^(initial_q:\s*)" + _FLOAT_LIST, new_q)
    text = _replace_once(
        text, r"^(\s+k_max:\s*)(\S+)$",
        lambda m: m.group(1) + _fmt(float(m.group(2)) * scale()))
    if scenario == "step":
        s = scale()
        text = _replace_once(
            text, r"^(\s+offset:\s*)" + _FLOAT_LIST,
            lambda m: m.group(1) + "[" + ", ".join(
                _fmt(float(v) * s) for v in m.group(2).split(",")) + "]")
    elif scenario == "sine":
        text = _replace_once(
            text, r"^(\s+amplitude:\s*)(\S+)$",
            lambda m: m.group(1) + _fmt(float(m.group(2)) * scale()))
    else:
        raise ValueError(f"no generator for scenario '{scenario}'")
    return text
