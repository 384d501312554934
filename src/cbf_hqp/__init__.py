"""Kinetic-energy-bounded safety filtering for torque-controlled arms.

The package combines a rigid-body dynamics layer, a dense active-set QP
solver, barrier-style constraint rows, a lexicographic QP cascade, a
Cartesian impedance controller with a per-step safety filter, and a
fixed-step simulator with CSV logging. The top level re-exports what the
quick start uses; everything else is imported from its submodule.
"""

from .dynamics import compute_state, load_bundled_model
from .sim import run_scenario

__all__ = ["compute_state", "load_bundled_model", "run_scenario"]

__version__ = "0.1.0"
