"""Command-line behavior: exit codes, CSV outputs, summary table."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cbf_hqp
from cbf_hqp.cli import main
from cbf_hqp.dynamics import bundled_model_path
from cbf_hqp.sim import bundled_scenario_path


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv):
    """The CLI in a child process, so an uncaught exception shows as a
    traceback on stderr."""
    src = str(Path(cbf_hqp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "cbf_hqp.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


class TestCheck:

    def test_bundled_models_pass(self, capsys):
        for name in ("twolink", "panda"):
            assert run_cli("check", name) == 0
            out = capsys.readouterr().out
            assert out.count("pass") == 4
            assert "FAIL" not in out

    def test_model_path_accepted(self):
        assert run_cli("check", str(bundled_model_path("twolink"))) == 0

    def test_corrupted_model_exits_one(self, tmp_path, capsys):
        text = bundled_model_path("twolink").read_text()
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("mass: 1.0", "mass: -1.0"))
        assert run_cli("check", str(bad)) == 1
        assert capsys.readouterr().err.strip()

    def test_non_finite_model_number_exits_one_without_traceback(
            self, tmp_path):
        model = tmp_path / "nan_gravity.yaml"
        model.write_text(bundled_model_path("twolink").read_text().replace(
            "gravity: [0.0, -9.81, 0.0]", "gravity: [0, 0, .nan]"))
        scn = tmp_path / "nan_gravity_run.yaml"
        scn.write_text(f"name: nan_gravity\nmodel: {model}\nmode: single_qp\n"
                       f"duration: 0.01\ninitial_q: [0.4, 0.5]\n")
        out = tmp_path / "out"
        for argv in (("check", str(model)),
                     ("run", "--scenario", str(scn), "--out", str(out))):
            proc = run_cli_process(*argv)
            assert proc.returncode == 1, proc.stderr
            assert "model.gravity" in proc.stderr
            assert "Traceback" not in proc.stderr
        assert not list(out.glob("*.csv"))

    def test_missing_model_exits_two(self, tmp_path):
        assert run_cli("check", str(tmp_path / "nope.yaml")) == 2

    def test_seed_changes_nothing_observable(self, capsys):
        assert run_cli("check", "twolink", "--seed", "7") == 0
        assert "pass" in capsys.readouterr().out


class TestRun:

    def test_missing_scenario_exits_two_with_path(self, tmp_path, capsys):
        missing = tmp_path / "ghost.yaml"
        assert run_cli("run", "--scenario", str(missing)) == 2
        assert str(missing) in capsys.readouterr().err

    def test_bundled_name_resolves(self, tmp_path, capsys):
        rc = run_cli("run", "--scenario", "step", "--duration", "0.01",
                     "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "step_hqp_performance_gamma5.csv").exists()

    def test_grid_writes_one_csv_per_cell(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("CBF_HQP_THREADS", "2")
        rc = run_cli("run", "--scenario", str(bundled_scenario_path("step")),
                     "--mode", "single_qp,hqp_safety", "--gamma", "1,20",
                     "--duration", "0.01", "--out", str(tmp_path))
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["step_hqp_safety_gamma1.csv",
                         "step_hqp_safety_gamma20.csv",
                         "step_single_qp_gamma1.csv",
                         "step_single_qp_gamma20.csv"]
        out = capsys.readouterr().out
        # one summary row per grid cell, ordered by mode then gamma
        rows = [l for l in out.splitlines() if l.startswith("step_")]
        assert [r.split()[0] for r in rows] == [
            "step_single_qp_gamma1", "step_single_qp_gamma20",
            "step_hqp_safety_gamma1", "step_hqp_safety_gamma20"]

    @pytest.mark.parametrize("modes, gammas", [
        ("single_qp,single_qp", "5"), ("single_qp", "5,5.0000001")])
    def test_cells_sharing_a_csv_name_exit_one_naming_it(
            self, tmp_path, capsys, modes, gammas):
        # gamma is written with :g, so 5 and 5.0000001 share a file name
        rc = run_cli("run", "--scenario", "step", "--mode", modes,
                     "--gamma", gammas, "--duration", "0.01",
                     "--out", str(tmp_path))
        assert rc == 1
        assert "step_single_qp_gamma5.csv" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_single_worker_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CBF_HQP_THREADS", "1")
        rc = run_cli("run", "--scenario", "sine", "--duration", "0.01",
                     "--out", str(tmp_path))
        assert rc == 0

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CBF_HQP_THREADS", "many")
        rc = run_cli("run", "--scenario", "sine", "--duration", "0.01",
                     "--out", str(tmp_path))
        assert rc == 1
        assert "CBF_HQP_THREADS" in capsys.readouterr().err

    def test_summary_matches_csv(self, tmp_path, capsys):
        rc = run_cli("run", "--scenario", "step", "--mode", "single_qp",
                     "--duration", "1.2", "--out", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("step_"))
        reported_max_k = float(row.split()[1])
        with open(tmp_path / "step_single_qp_gamma5.csv") as fh:
            rows = list(csv.DictReader(fh))
        max_k = max(float(r["K"]) for r in rows)
        assert reported_max_k == pytest.approx(max_k, abs=1e-5)

    def test_kmax_override_reflected_in_log(self, tmp_path):
        rc = run_cli("run", "--scenario", "sine", "--kmax", "0.3",
                     "--duration", "0.01", "--out", str(tmp_path))
        assert rc == 0
        with open(tmp_path / "sine_hqp_safety_gamma5.csv") as fh:
            rows = list(csv.DictReader(fh))
        # quiescent first 10 ms: no slack, so the effective bound is the
        # override itself
        assert all(float(r["K_max_eff"]) == 0.3 for r in rows)

    def test_unknown_mode_exits_one(self, tmp_path, capsys):
        rc = run_cli("run", "--scenario", "step", "--mode", "pid",
                     "--out", str(tmp_path))
        assert rc == 1
        assert "pid" in capsys.readouterr().err

    def test_faulting_run_exits_one_and_names_run(self, tmp_path, capsys):
        scn = tmp_path / "overload.yaml"
        scn.write_text("""
name: overload
model: twolink
mode: single_qp
duration: 2.0
initial_q: [0.4, 0.5]
cbf: {k_max: 0.0001, gamma: 10000.0}
wrench: {kind: sine, axis: 1, amplitude: 60.0, frequency: 1.0}
""")
        rc = run_cli("run", "--scenario", str(scn), "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert "overload_single_qp_gamma10000" in err

    def test_malformed_scenario_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "broken.yaml"
        scn.write_text("name: broken\nmode: single_qp\n")
        rc = run_cli("run", "--scenario", str(scn), "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize("name", ["../../escaped", "[a, b]"])
    def test_name_that_leaves_out_exits_one_writing_nothing(
            self, tmp_path, capsys, name):
        scn = tmp_path / "scenario.yaml"
        scn.write_text(bundled_scenario_path("step").read_text().replace(
            "name: step", f"name: {name}"))
        rc = run_cli("run", "--scenario", str(scn), "--mode", "single_qp",
                     "--duration", "0.01",
                     "--out", str(tmp_path / "a" / "b" / "out"))
        assert rc == 1
        assert "name must be" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [scn]

    def test_mistyped_field_exits_one_naming_it(self, tmp_path, capsys):
        scn = tmp_path / "typo.yaml"
        scn.write_text("name: typo\nmodel: panda\nduration: 0.01\n"
                       "initial_q: [0, 0, 0, -2, 0, 2, 0]\n"
                       "controller: {k_trans: 5}\n")
        rc = run_cli("run", "--scenario", str(scn), "--out", str(tmp_path))
        assert rc == 1
        assert "controller.k_trans" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--gamma", "nan"), ("--kmax", "inf"), ("--duration", "0"),
        ("--duration", "1e308")])
    def test_non_finite_or_empty_override_exits_one_naming_it(
            self, tmp_path, capsys, option, value):
        rc = run_cli("run", "--scenario", "step", "--mode", "single_qp",
                     option, value, "--out", str(tmp_path))
        assert rc == 1
        name = {"--kmax": "k_max"}.get(option, option[2:])
        assert name in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("threads", ["1", None],
                             ids=["one_worker", "threads_unset"])
    @pytest.mark.parametrize("option, value, refused", [
        ("--gamma", "1,-1", "--gamma -1"), ("--kmax", "0", "--kmax 0")],
        ids=["gamma", "kmax"])
    def test_refused_cell_exits_one_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch, threads, option, value,
            refused):
        # every cell's barrier parameters are built before the first
        # cell runs, so the valid gamma 1 cell writes nothing either
        if threads is None:
            monkeypatch.delenv("CBF_HQP_THREADS", raising=False)
        else:
            monkeypatch.setenv("CBF_HQP_THREADS", threads)
        out = tmp_path / "out"
        rc = run_cli("run", "--scenario", "sine", option, value,
                     "--duration", "0.01", "--out", str(out))
        assert rc == 1
        assert refused in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_io_errors_exit_two_naming_the_path(self, tmp_path):
        # an existing file as --out, a directory as the scenario or model
        taken = tmp_path / "taken"
        taken.write_text("")
        cases = [
            (("run", "--scenario", "step", "--mode", "single_qp",
              "--duration", "0.01", "--out", str(taken)), taken),
            (("run", "--scenario", str(tmp_path),
              "--out", str(tmp_path / "out")), tmp_path),
            (("check", str(tmp_path)), tmp_path)]
        for argv, path in cases:
            proc = run_cli_process(*argv)
            assert proc.returncode == 2, proc.stderr
            assert str(path) in proc.stderr
            assert "Traceback" not in proc.stderr
        assert not list(tmp_path.rglob("*.csv"))

    def test_plane_family_without_a_plane_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "noplane.yaml"
        scn.write_text(bundled_scenario_path("step").read_text()
                       + "strict_families: [torque, plane]\n")
        rc = run_cli("run", "--scenario", str(scn), "--mode", "single_qp",
                     "--duration", "0.01", "--out", str(tmp_path))
        assert rc == 1
        assert "cbf.plane_normal" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run")  # --scenario is required
        assert exc.value.code == 2
