import filecmp
import json
import os
import tracemalloc

import numpy as np
import pytest

from cavitysim import config
from cavitysim.cli import main
from cavitysim.config import parse_config
from cavitysim.runner import run_scenario

TINY_CUSTOM = (
    'scenario = "custom"\n'
    "n_atoms = 1\n"
    "t_end_ns = 0.05\n"
    "dt_ns = 0.0005\n"
)

SMALL_FIG5 = (
    'scenario = "fig5_position_map"\n'
    'design = "D1"\n'
    "[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\nsteps = 3\n"
    "[sweep.delta_y_nm]\nmin = 0.0\nmax = 53.0\nsteps = 2\n"
)


def _write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for scen in ("fig2_single_atom", "fig5_position_map", "custom"):
        assert scen in out


def test_validate_ok_and_bad(tmp_path, capsys):
    good = _write(tmp_path, TINY_CUSTOM)
    assert main(["validate", good]) == 0
    assert "OK" in capsys.readouterr().out
    bad = _write(tmp_path, 'scenario = "custom"\nbogus = 1\n', "bad.txt")
    assert main(["validate", bad]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "line 2" in err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.txt")]) == 1


def test_run_writes_contracted_outputs(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_CUSTOM)
    out_dir = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output-dir", out_dir]) == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["config.txt", "manifest.json", "summary.csv", "traj_custom.csv"]
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert sorted(manifest) == [
        "config_sha256", "n_trajectories", "scenario", "tool", "version"]
    assert manifest["tool"] == "cavitysim"
    assert manifest["scenario"] == "custom"
    assert len(manifest["config_sha256"]) == 64
    header = open(os.path.join(out_dir, "traj_custom.csv")).readline()
    assert header.startswith("# schema: cavitysim-trajectory-v1")


def test_run_is_reproducible_bytewise(tmp_path):
    cfg_path = _write(tmp_path, TINY_CUSTOM)
    for d in ("r1", "r2"):
        assert main(["run", cfg_path, "--output-dir", str(tmp_path / d)]) == 0
    match, mismatch, errs = filecmp.cmpfiles(
        tmp_path / "r1", tmp_path / "r2",
        os.listdir(tmp_path / "r1"), shallow=False,
    )
    assert not mismatch and not errs


def test_fig5_parallel_matches_serial(tmp_path):
    cfg_path = _write(tmp_path, SMALL_FIG5)
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "w2"), "--workers", "2"]) == 0
    files = os.listdir(tmp_path / "w1")
    assert "map.csv" in files
    match, mismatch, errs = filecmp.cmpfiles(tmp_path / "w1", tmp_path / "w2", files, shallow=False)
    assert not mismatch and not errs


def test_run_exit_code_on_config_error(tmp_path):
    bad = _write(tmp_path, 'scenario = "custom"\nn_atoms = 0\n')
    assert main(["run", bad]) == 1


def test_run_exit_code_on_runtime_failure(tmp_path):
    # a window shorter than one collective period has too few extrema to
    # measure the W-state frequency from
    short = _write(tmp_path, 'scenario = "n_atom_wstate"\nt_end_ns = 0.004\n')
    assert main(["run", short, "--output-dir", str(tmp_path / "x")]) == 2


def test_validate_rejects_over_memory_config(tmp_path, capsys):
    # lossy N = 7 would take expm of a 147456^2 Liouvillian; the estimate
    # rejects it before any array is allocated
    big = _write(tmp_path, 'scenario = "custom"\nn_atoms = 7\n', name="big.cfg")
    tracemalloc.start()
    try:
        assert main(["validate", big]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert "GB at peak" in capsys.readouterr().err
    ok = _write(tmp_path, 'scenario = "custom"\nn_atoms = 4\n', name="ok.cfg")
    assert main(["validate", ok]) == 0


def test_validate_rejects_field_map_over_memory(tmp_path, capsys, monkeypatch):
    # a fixed 8 GB host: at 0.5 nm the map grid has 6401 x 1081 x 681 nodes
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 10**9)
    fine = _write(tmp_path, 'scenario = "fig5_position_map"\nresolution_nm = 0.5\n',
                  name="fine.cfg")
    tracemalloc.start()
    try:
        assert main(["validate", fine]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    err = capsys.readouterr().err
    assert "line 2: resolution_nm:" in err and "field map" in err
    ok = _write(tmp_path, 'scenario = "fig5_position_map"\nresolution_nm = 5.0\n',
                name="ok.cfg")
    assert main(["validate", ok]) == 0


def test_removed_seed_option_is_a_usage_error(tmp_path):
    cfg_path = _write(tmp_path, TINY_CUSTOM)
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg_path, "--seed", "1", "--output-dir", str(tmp_path / "x")])
    assert exc.value.code == 1
    assert not os.path.exists(tmp_path / "x")


def test_workers_must_be_positive(tmp_path):
    cfg_path = _write(tmp_path, TINY_CUSTOM)
    assert main(["run", cfg_path, "--workers", "0"]) == 1


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("CAVITYSIM_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = parse_config(TINY_CUSTOM)
    report = run_scenario(cfg)
    assert report.output_dir == str(tmp_path / "root" / "custom")
    assert os.path.exists(os.path.join(report.output_dir, "summary.csv"))


def test_summary_recomputable_from_trajectory_csv(tmp_path):
    # every summary scalar must be recomputable from the emitted CSVs
    cfg = parse_config(
        'scenario = "fig3_two_atom"\nt_end_ns = 0.12\ndt_ns = 0.0002\n'
    )
    report = run_scenario(cfg, output_dir=str(tmp_path / "fig3"))
    path = os.path.join(report.output_dir, "traj_one_photon_ratio.csv")
    data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
    a1 = np.max(data["pop_0eg"])
    a2 = np.max(data["pop_0ge"])
    splitting = abs(a1 - a2) / (a1 + a2)
    assert splitting == pytest.approx(report.summary["splitting_measured"], abs=1e-12)
    fidelity = float(np.sqrt(np.max(data["P_psi_plus"])))
    assert fidelity == pytest.approx(report.summary["fidelity_peak"], abs=1e-12)
