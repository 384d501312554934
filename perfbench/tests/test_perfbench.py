"""Tests of the benchmark's own machinery, on very short rollouts."""

import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
from spans import SpanLog, percentile  # noqa: E402
from workloads import DEFAULT_SEED, Q0_RADIUS, WORKLOADS, Workload, scenario_text  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


# -- percentile rule ------------------------------------------------------

def test_p99_keeps_ten_samples_beyond_it():
    value, q = percentile(range(1, 1001), 99.0)
    assert (value, q) == (990.0, 99.0)
    assert sum(v > value for v in range(1, 1001)) == 10


def test_p99_drops_to_highest_percentile_the_count_supports():
    value, q = percentile(range(1, 501), 99.0)
    assert sum(v > value for v in range(1, 501)) == 10
    assert q == pytest.approx(98.0)


def test_tail_of_a_tiny_sample_is_its_median():
    assert percentile([5, 1, 4, 2, 3], 99.0) == (3.0, 60.0)
    assert percentile([], 99.0) == (0.0, 99.0)


# -- self time ------------------------------------------------------------

def test_self_time_subtracts_children_but_not_grandchildren():
    log = SpanLog()
    top = log.add("top", 0, 100)
    log.add("a", 10, 30, parent=top)
    b = log.add("b", 40, 70, parent=top)
    log.add("b.inner", 45, 50, parent=b)
    selft = log.self_times()
    assert selft[top] == 100 - 20 - 30
    assert selft[b] == 30 - 5


def test_self_time_counts_overlapping_children_once_and_clips_them():
    log = SpanLog()
    top = log.add("top", 0, 100)
    log.add("a", 10, 30, parent=top)
    log.add("b", 20, 40, parent=top)
    log.add("c", 90, 120, parent=top)
    assert log.self_times()[top] == 100 - 30 - 10


def test_open_close_takes_parent_from_the_call_stack():
    log = SpanLog()
    outer = log.open("outer")
    inner = log.open("inner")
    log.close(inner)
    log.close(outer)
    assert log.parent == [-1, outer]
    assert log.start[outer] <= log.start[inner] <= log.end[inner] <= log.end[outer]


# -- probe integrity ------------------------------------------------------

def test_missing_attribute_refuses_to_attach():
    mods = types.SimpleNamespace(sim=types.ModuleType("fake_sim"))
    with pytest.raises(layers.ProbeError, match="fake_sim.run_scenario"):
        with layers.patched(mods, [("sim", "run_scenario", lambda fn: fn)]):
            pass


def test_counts_report_a_probe_that_never_fired():
    counts = {f"{name}.calls": 3 for _, _, name in layers.PROBES}
    counts["dynamics.compute_state.calls"] = 4
    counts["hqp.solve_level.L3.calls"] = 0   # level absent in this mode
    assert layers.check_counts(counts, periods=3) == []
    counts["qpcore.solve_qp.calls"] = 0
    assert layers.check_counts(counts, periods=3) == [
        "probe qpcore.solve_qp never fired"]


SHORT = Workload("short", "step", "hqp_performance", 0.02)


def _traced_cell(pkg, tmp_path, monkeypatch, inline=None):
    monkeypatch.setattr(run, "OUT", tmp_path)
    text = pkg.sim.bundled_scenario_path("step").read_text()
    tracer = layers.Tracer(pkg.qpcore.FEAS_TOL)
    with tracer.install(pkg):
        if inline is not None:   # the caller stops looking the probe up
            mod, attr, fn = inline
            monkeypatch.setattr(mod, attr, fn)
        cell = run.run_cell(pkg, SHORT, text, tracer, traced=True)
    return cell


def test_short_traced_rollout_passes_every_check(pkg, tmp_path, monkeypatch):
    cell = _traced_cell(pkg, tmp_path, monkeypatch)
    assert cell.problems == []
    assert cell.periods == 20
    assert cell.counts["control.step.calls"] == 20
    assert cell.counts["dynamics.compute_state.calls"] == 21
    assert cell.counts["hqp.solve_level.L3.calls"] == 20


def test_inlined_call_fails_the_run(pkg, tmp_path, monkeypatch):
    original = pkg.hqp.solve_qp
    cell = _traced_cell(pkg, tmp_path, monkeypatch,
                        inline=(pkg.hqp, "solve_qp", original))
    assert "probe qpcore.solve_qp never fired" in cell.problems


def test_untraced_entry_probe_fires_once_per_period(pkg, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    text = pkg.sim.bundled_scenario_path("step").read_text()
    original = pkg.control.step
    probe = layers.EntryProbe()
    with probe.install(pkg):
        cell = run.run_cell(pkg, SHORT, text, probe, traced=False)
    assert cell.problems == []
    assert len(cell.period_us) == cell.periods == 20
    assert pkg.control.step is original


def test_entry_probe_leaves_time_off_the_core_out_of_the_period():
    probe = layers.EntryProbe()
    step = probe.wrap(lambda: (time.sleep(0.05), None))
    step()
    step()
    assert probe.stamps[1] - probe.stamps[0] < 25_000_000   # ns of CPU


# -- seeded generator -----------------------------------------------------

@pytest.mark.parametrize("scenario", ["step", "sine"])
def test_default_seed_reproduces_the_bundled_scenario(pkg, scenario):
    bundled = pkg.sim.bundled_scenario_path(scenario).read_text()
    assert scenario_text(bundled, scenario, DEFAULT_SEED) == bundled


@pytest.mark.parametrize("scenario", ["step", "sine"])
def test_other_seeds_perturb_only_the_chosen_fields(pkg, scenario):
    bundled = pkg.sim.bundled_scenario_path(scenario).read_text()
    base = pkg.sim.load_scenario(bundled)
    model = pkg.sim.resolve_model(base.model_name)
    for seed in (1, 2, 3):
        text = scenario_text(bundled, scenario, seed)
        assert text == scenario_text(bundled, scenario, seed)
        sc = pkg.sim.load_scenario(text)
        dq = sc.q0 - base.q0
        assert 0.0 < np.linalg.norm(dq) <= Q0_RADIUS
        assert np.all(sc.q0 > model.q_min) and np.all(sc.q0 < model.q_max)
        assert sc.cbf.k_max != base.cbf.k_max
        assert (sc.mode, sc.duration, sc.dt) == (base.mode, base.duration, base.dt)
        if scenario == "step":
            assert sc.equilibrium.offset != base.equilibrium.offset
            assert sc.wrench == base.wrench
        else:
            assert sc.wrench.amplitude != base.wrench.amplitude
            assert sc.equilibrium == base.equilibrium


def test_home_pose_leaves_room_for_the_ball(pkg):
    for wl in WORKLOADS.values():
        sc = pkg.sim.load_scenario(
            pkg.sim.bundled_scenario_path(wl.scenario).read_text())
        model = pkg.sim.resolve_model(sc.model_name)
        margin = np.minimum(sc.q0 - model.q_min, model.q_max - sc.q0)
        assert margin.min() > 10 * Q0_RADIUS
