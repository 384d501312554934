"""Fixed-step closed-loop simulation and experiment logging.

A scenario file (YAML) describes the robot, the initial configuration,
the impedance target schedule, an optional scripted end-effector wrench,
the barrier parameters, and the controller mode. `run_scenario` rolls
the closed loop forward with semi-implicit Euler at the control rate and
returns one log record per step; `write_csv` serializes the records with
9 significant digits. A controller fault (empty constraint set) stops
the rollout and keeps the partial log.

The integrator holds torque and wrench constant over each step:

    qdd = M^-1 (u + J^T F_ext - h - g),  h = C qd the bias torque
    qd += dt qdd ; q += dt qd
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import control, dynamics
from .dynamics import RobotModel, RobotState, compute_state, load_bundled_model, load_model_file
from .tasks import CbfParams

Array = np.ndarray


class ScenarioError(ValueError):
    """Invalid scenario description; the message names the field."""


class SimulationFault(RuntimeError):
    """The state stopped being finite."""


# The model loader's number rules, raising ScenarioError.
_scalar = partial(dynamics._scalar, error=ScenarioError)
_vector = partial(dynamics._vector, error=ScenarioError)


@dataclass(frozen=True)
class WrenchSchedule:
    """Scripted external wrench at the end-effector.

    kind 'none' is identically zero; kind 'sine' puts
    amplitude * sin(2 pi frequency t) on one of the six wrench axes.
    """
    kind: str = "none"
    axis: int = 2
    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "sine"):
            raise ScenarioError(f"wrench.kind '{self.kind}' not recognized")
        if self.kind == "sine":
            if not 0 <= self.axis <= 5:
                raise ScenarioError("wrench.axis must be in 0..5")
            if self.frequency <= 0.0:
                raise ScenarioError("wrench.frequency must be > 0")

    def at(self, t: float) -> Array | None:
        if self.kind == "none":
            return None
        w = np.zeros(6)
        w[self.axis] = self.amplitude * np.sin(2.0 * np.pi * self.frequency * t)
        return w


@dataclass(frozen=True)
class EquilibriumSchedule:
    """Impedance equilibrium pose over time.

    kind 'hold' keeps the pose of the initial configuration; kind 'step'
    adds a position offset from time `at` onward.
    """
    kind: str = "hold"
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    at: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hold", "step"):
            raise ScenarioError(f"equilibrium.kind '{self.kind}' not recognized")
        if self.kind == "step" and self.at < 0.0:
            raise ScenarioError("equilibrium.at must be >= 0")

    def stepped(self, t: float) -> bool:
        """Whether the offset applies at time t."""
        return self.kind == "step" and t >= self.at

    def offset_at(self, t: float) -> Array:
        if self.stepped(t):
            return np.asarray(self.offset, dtype=float)
        return np.zeros(3)


@dataclass(frozen=True)
class Scenario:
    name: str
    model_name: str
    q0: Array
    k_trans: tuple[float, float, float]
    k_rot: tuple[float, float, float]
    cbf: CbfParams
    mode: str
    strict_families: tuple[str, ...]
    duration: float
    dt: float
    wrench: WrenchSchedule
    equilibrium: EquilibriumSchedule

    def __post_init__(self):
        if not np.all(np.isfinite(self.q0)):
            raise ScenarioError("initial_q must hold finite numbers")
        if not (0.0 < self.duration < np.inf):
            raise ScenarioError("duration must be a finite number > 0")
        if not (0.0 < self.dt < np.inf):
            raise ScenarioError("dt must be a finite number > 0")
        if self.mode not in control.MODES:
            raise ScenarioError(f"unknown mode '{self.mode}'; the modes are "
                                f"{control.MODES}")


@dataclass
class LogRecord(control.StepInfo):
    """One control step of a rollout: the step's StepInfo, the time t and
    the read-only q and qd of the state it acted on."""
    t: float
    q: Array
    qd: Array


@dataclass
class SimResult:
    scenario_name: str
    mode: str
    gamma: float
    k_max: float
    dt: float
    duration: float
    records: list[LogRecord]
    fault: bool
    fault_reason: str


def _section(raw: dict, name: str, allowed, default: dict) -> dict:
    """The mapping under `name` (default when absent or empty), refusing
    any key outside `allowed`."""
    sec = raw.get(name) or default
    if not isinstance(sec, dict):
        raise ScenarioError(f"'{name}' must be a mapping")
    for key in sec:
        if key not in allowed:
            raise ScenarioError(f"unknown {name} parameter '{key}'")
    return dict(sec)


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def load_scenario(text: str) -> Scenario:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a mapping")

    def need(key):
        if key not in raw:
            raise ScenarioError(f"scenario is missing '{key}'")
        return raw[key]

    name = need("name")
    # the name starts the CSV file name, so it must not leave --out
    if not isinstance(name, str) or name in ("", ".", "..") or \
            "/" in name or "\\" in name:
        raise ScenarioError(f"name must be a non-empty string with no path "
                            f"separator, other than '.' and '..', got {name!r}")
    model_name = str(need("model"))
    q0 = np.array(_vector(need("initial_q"), None, "initial_q"))
    duration = _scalar(need("duration"), "duration")
    dt = _scalar(raw.get("dt", 1e-3), "dt")
    mode = str(raw.get("mode", "single_qp"))

    ctl = _section(raw, "controller", ("k_trans", "k_rot"), {})
    k_trans = _vector(ctl.get("k_trans", (200.0, 200.0, 200.0)), 3,
                      "controller.k_trans")
    k_rot = _vector(ctl.get("k_rot", (50.0, 50.0, 50.0)), 3, "controller.k_rot")

    cbf_raw = _section(raw, "cbf", _field_names(CbfParams), {})
    for key, v in cbf_raw.items():
        if key != "plane_normal":
            cbf_raw[key] = _scalar(v, f"cbf.{key}")
        elif v is not None:
            cbf_raw[key] = _vector(v, 3, "cbf.plane_normal")
    cbf = CbfParams(**cbf_raw)

    fams = raw.get("strict_families", ["torque", "velocity", "position"])
    if not isinstance(fams, list):
        raise ScenarioError("strict_families must be a list")
    strict_families = tuple(str(f) for f in fams)
    try:
        control.check_strict_families(strict_families, cbf)
    except ValueError as exc:
        raise ScenarioError(f"strict_families: {exc}") from None

    wr = _section(raw, "wrench", _field_names(WrenchSchedule), {"kind": "none"})
    wrench = WrenchSchedule(**{
        k: (str(v) if k == "kind" else
            _scalar(v, f"wrench.{k}", int if k == "axis" else float))
        for k, v in wr.items()})
    eqr = _section(raw, "equilibrium", _field_names(EquilibriumSchedule),
                   {"kind": "hold"})
    if "offset" in eqr:
        eqr["offset"] = _vector(eqr["offset"], 3, "equilibrium.offset")
    if "at" in eqr:
        eqr["at"] = _scalar(eqr["at"], "equilibrium.at")
    equilibrium = EquilibriumSchedule(**eqr)

    return Scenario(name=name, model_name=model_name, q0=q0, k_trans=k_trans,
                    k_rot=k_rot, cbf=cbf, mode=mode,
                    strict_families=strict_families, duration=duration,
                    dt=dt, wrench=wrench, equilibrium=equilibrium)


def load_scenario_file(path: str | Path) -> Scenario:
    return load_scenario(Path(path).read_text())


def bundled_scenario_path(name: str) -> Path:
    """Path of an experiment description shipped with the package."""
    return Path(__file__).parent / "data" / "experiments" / f"{name}.yaml"


def resolve_model(name_or_path: str) -> RobotModel:
    p = Path(name_or_path)
    if p.suffix in (".yaml", ".yml") or p.exists():
        return load_model_file(p)
    return load_bundled_model(name_or_path)


def integrate_step(state: RobotState, u_applied: Array,
                   wrench: Array | None = None, dt: float = 1e-3) -> RobotState:
    """One semi-implicit Euler step under held torque and wrench."""
    tau = np.asarray(u_applied, dtype=float)
    if wrench is not None:
        tau = tau + state.J.T @ np.asarray(wrench, dtype=float)
    qdd = state.M_inv @ (tau - state.h - state.g)
    qd_next = state.qd + dt * qdd
    q_next = state.q + dt * qd_next
    if not (np.isfinite(q_next).all() and np.isfinite(qd_next).all()):
        raise SimulationFault("state became non-finite")
    return compute_state(state.model, q_next, qd_next)


def run_scenario(scenario: Scenario, model: RobotModel | None = None,
                 mode: str | None = None, gamma: float | None = None,
                 k_max: float | None = None,
                 duration: float | None = None) -> SimResult:
    """Closed-loop rollout. Keyword overrides support parameter sweeps
    without editing scenario files. The controller's period is the
    scenario's dt, so the energy row's slack rate uses the period the
    loop steps with."""
    if model is None:
        model = resolve_model(scenario.model_name)
    if scenario.q0.shape != (model.n_joints,):
        raise ScenarioError("initial_q length does not match the model")
    mode = mode or scenario.mode
    dt, cbf = scenario.dt, scenario.cbf
    cbf = dataclasses.replace(
        cbf, gamma=float(gamma) if gamma is not None else cbf.gamma,
        k_max=float(k_max) if k_max is not None else cbf.k_max)
    duration = float(duration) if duration is not None else scenario.duration
    if not (0.0 < duration < np.inf and duration / dt < np.inf):
        raise ScenarioError(f"duration must be a finite number > 0 with a "
                            f"finite duration / dt, got duration "
                            f"{duration!r} and dt {dt!r}")
    n_steps = int(round(duration / dt))

    state = compute_state(model, scenario.q0, np.zeros(model.n_joints))
    base_pos = state.ee_pos.copy()
    base_quat = state.ee_quat.copy()

    # one impedance target before the equilibrium step and one after it
    impedances: dict[bool, control.ImpedanceParams] = {}

    def impedance_at(t: float) -> control.ImpedanceParams:
        stepped = scenario.equilibrium.stepped(t)
        if stepped not in impedances:
            off = scenario.equilibrium.offset_at(t)
            impedances[stepped] = control.ImpedanceParams(
                k_trans=scenario.k_trans, k_rot=scenario.k_rot,
                eq_position=tuple(base_pos + off), eq_quat=tuple(base_quat))
        return impedances[stepped]

    ctrl = control.ControllerState(mode=mode, cbf=cbf,
                                   impedance=impedance_at(0.0),
                                   strict_families=scenario.strict_families,
                                   dt=dt)
    records: list[LogRecord] = []
    fault = False
    reason = ""
    for k in range(n_steps):
        t = k * dt
        ctrl.impedance = impedance_at(t)
        wrench = scenario.wrench.at(t)
        tau_ext = state.J.T @ wrench if wrench is not None else None
        u, info = control.step(state, ctrl, tau_ext)
        records.append(LogRecord(**vars(info), t=t, q=state.q, qd=state.qd))
        if info.fault:
            fault = True
            reason = info.fault_reason
            break
        try:
            state = integrate_step(state, u, wrench, dt)
        except SimulationFault as exc:
            fault = True
            reason = str(exc)
            break
    return SimResult(scenario_name=scenario.name, mode=mode, gamma=cbf.gamma,
                     k_max=cbf.k_max, dt=dt, duration=duration,
                     records=records, fault=fault, fault_reason=reason)


def csv_filename(scenario_name: str, mode: str, gamma: float) -> str:
    """The CSV name of one grid cell."""
    return f"{scenario_name}_{mode}_gamma{gamma:g}.csv"


def _columns(n: int) -> list[str]:
    cols = ["t"]
    cols += [f"q{i}" for i in range(n)]
    cols += [f"qd{i}" for i in range(n)]
    cols += [f"u_nom{i}" for i in range(n)]
    cols += [f"u{i}" for i in range(n)]
    cols += ["K", "K_max_eff", "delta"]
    cols += [f"dW{i}" for i in range(6)]
    cols += ["alpha_dev", "eq_residual", "solve_time_us", "damped",
             "statuses", "active_strict"]
    return cols


def write_csv(result: SimResult, path: str | Path) -> Path:
    """One row per record, floats at 9 significant digits, string lists
    joined with ';' so the file stays a plain single-table CSV."""
    path = Path(path)
    if not result.records:
        raise ValueError("nothing to write: result has no records")
    n = result.records[0].q.shape[0]

    def fmt(x: float) -> str:
        return f"{x:.9g}"

    lines = [",".join(_columns(n))]
    for r in result.records:
        vals = [fmt(r.t)]
        for arr in (r.q, r.qd, r.u_nom, r.u_applied):
            vals += [fmt(v) for v in arr]
        vals += [fmt(r.K), fmt(r.k_max_eff), fmt(r.delta)]
        vals += [fmt(v) for v in r.dW]
        vals += [fmt(r.alpha_dev), fmt(r.eq_residual), fmt(r.solve_time_us),
                 str(int(r.damped)), ";".join(r.statuses),
                 ";".join(r.active_strict)]
        lines.append(",".join(vals))
    path.write_text("\n".join(lines) + "\n")
    return path


def audit(result: SimResult) -> list[str]:
    """Log-level invariant violations (empty list means clean).

    Checks completeness, time monotonicity, finiteness, slack
    bookkeeping, and the inherited-equality residual. Deeper
    model-based identities live in the test suite.
    """
    problems = []
    if result.fault:
        problems.append(f"controller fault: {result.fault_reason}")
    elif len(result.records) != int(round(result.duration / result.dt)):
        problems.append("record count does not match duration/dt")
    recs = result.records
    if not recs:
        return problems
    # One pass per check over all records; the messages name the first
    # broken stride, and the first record that breaks a record check,
    # with the first check it breaks.
    t = np.array([r.t for r in recs])
    stride_ok = np.isclose(np.diff(t), result.dt, rtol=0, atol=1e-12)
    if not stride_ok.all():
        problems.append(f"time stride broken at record "
                        f"{int(np.argmin(stride_ok)) + 1}")
    scalars = np.array([(r.K, r.k_max_eff, r.delta, r.solve_time_us,
                         r.eq_residual) for r in recs])
    K_max_eff, delta, eq_residual = scalars[:, 1], scalars[:, 2], scalars[:, 4]
    finite = np.isfinite(scalars[:, :4]).all(axis=1)
    for name in ("q", "qd", "u_nom", "u_applied", "dW"):
        finite &= np.isfinite(np.array([getattr(r, name) for r in recs])
                              ).all(axis=1)
    checks = (
        (~finite, lambda i: f"non-finite value at record {i}"),
        (delta < 0.0, lambda i: f"negative slack at record {i}"),
        (np.abs(K_max_eff - (result.k_max + delta)) > 1e-12,
         lambda i: f"slack bookkeeping broken at record {i}"),
        (np.isfinite(eq_residual) & (eq_residual > 1e-8),
         lambda i: f"inherited equality residual {eq_residual[i]:.3g} "
                   f"at record {i}"),
    )
    broken = np.array([bad for bad, _ in checks])
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))
        problems.append(checks[int(np.argmax(broken[:, i]))][1](i))
    return problems
