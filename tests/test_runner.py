import ast
import filecmp
import importlib.util
import inspect
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cavitysim import analytic, config, dynamics as dyn, fockspace as fs, model, runner
from cavitysim.cli import main
from cavitysim.config import SCENARIOS, parse_config
from cavitysim.fockspace import HilbertLayout
from cavitysim.model import SystemParams
from cavitysim.runner import run_scenario
from cavitysim.units import ghz_to_angular, mhz_to_angular

from conftest import dense, per_cell_csv, plan_runs

RUN_ALL_FIGURES = Path(__file__).resolve().parents[1] / "scripts" / "run_all_figures.py"


def test_fig2_summary_reproduces_design_figures(tmp_path):
    cfg = parse_config('scenario = "fig2_single_atom"\n')
    report = run_scenario(cfg, output_dir=str(tmp_path / "fig2"))
    s = report.summary
    assert s["rabi_frequency_ghz"] == pytest.approx(18.0, rel=1e-3)  # g/pi, g angular
    assert s["tau_r_ns"] == pytest.approx(8.93, rel=0.05)
    assert s["tau_r_ns"] == pytest.approx(10.0, rel=0.15)            # quoted ~10 ns
    assert s["cooperativity"] == pytest.approx(4.5e5, rel=0.03)
    assert sorted(report.trajectory_files) == ["traj_long.csv", "traj_short.csv"]


def test_default_scenarios_write_the_per_cell_reference(tmp_path, monkeypatch):
    # every trajectory file of the six default configs, fig5's 2 x 81 map
    # points included, is the text of the per-cell writer
    spec = importlib.util.spec_from_file_location("run_all_figures", RUN_ALL_FIGURES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    kept = {}
    real = runner.run_plan

    def capturing(cfg):
        out = real(cfg)
        kept.update(out[0])
        return out

    monkeypatch.setattr(runner, "run_plan", capturing)
    files = 0
    for name, text in script.RUNS:
        kept.clear()
        report = run_scenario(parse_config(text), output_dir=str(tmp_path / name))
        assert sorted(report.trajectory_files) == sorted(f"traj_{k}.csv" for k in kept)
        for key, traj in kept.items():
            with open(tmp_path / name / f"traj_{key}.csv", encoding="utf-8", newline="") as fh:
                assert fh.read() == per_cell_csv(traj), (name, key)
            files += 1
    assert files == 2 + 4 + 4 + 81 + 81 + 1


def test_fig5_single_point_sweep_gives_one_trajectory(tmp_path):
    cfg = parse_config(
        'scenario = "fig5_position_map"\n'
        "[sweep.delta_x_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n"
        "[sweep.delta_y_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n"
    )
    report = run_scenario(cfg, output_dir=str(tmp_path / "one"))
    assert report.trajectory_files == ["traj_dx00_dy00.csv"]
    map_rows = open(os.path.join(report.output_dir, "map.csv")).read().splitlines()
    assert len(map_rows) == 2  # header + single point
    assert report.summary["alpha_min"] == pytest.approx(1.0, abs=1e-9)
    assert report.summary["max_reduction_pct"] < 0.05


TRAP_ROWS = {"trap_mean_peak_concurrence", "trap_min_peak_concurrence_2sigma"}


def _fig5_summary_keys(text: str) -> set:
    return set(runner.run_plan(parse_config('scenario = "fig5_position_map"\n' + text))[1])


@pytest.mark.parametrize("text, rows", [
    ('design = "D1"\n', TRAP_ROWS),
    ('design = "D3"\n', TRAP_ROWS),
    ("lossless = false\n", set()),      # the closed form is not a lossy run's peak
    ("detuning_ghz = 5.0\n", set()),    # nor a detuned one's
], ids=["D1", "D3", "lossy", "detuned"])
def test_fig5_writes_trap_rows_when_lossless_and_resonant(text, rows):
    one_point = ("[sweep.delta_x_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n"
                 "[sweep.delta_y_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n")
    assert _fig5_summary_keys(text + one_point) & TRAP_ROWS == rows


@pytest.mark.parametrize("dx_min, axis_rows", [
    (10.0, set()),                       # no point on either axis
    (0.0, {"reduction_y_axis_pct"}),     # dx = 0: points on the y axis only
], ids=["off_both_axes", "on_the_y_axis"])
def test_fig5_axis_rows_only_for_an_axis_the_sweep_holds(dx_min, axis_rows):
    keys = _fig5_summary_keys(
        f'design = "D3"\n[sweep.delta_x_nm]\nmin = {dx_min}\nmax = 53.0\nsteps = 2\n'
        "[sweep.delta_y_nm]\nmin = 5.0\nmax = 20.0\nsteps = 2\n")
    assert {k for k in keys if k.startswith("reduction_")} == axis_rows
    assert "max_reduction_pct" in keys


def test_fig4_alpha_map_tracks_closed_form(tmp_path):
    cfg = parse_config(
        'scenario = "fig4_correlations"\nlossless = true\nt_end_ns = 0.2\n'
        "[sweep.alpha]\nmin = 0.0\nmax = 1.0\nsteps = 5\n"
    )
    report = run_scenario(cfg, output_dir=str(tmp_path / "fig4"))
    data = np.genfromtxt(os.path.join(report.output_dir, "alpha_map.csv"),
                         delimiter=",", names=True)
    for row in data:
        alpha = row["alpha"]
        # lossless with alpha <= 1, the peaks are the closed forms' at the
        # quarter period, the sweep grid's step 125 of 300 (above alpha = 1,
        # S_C passes 1 before it)
        metrics = analytic.peak_entanglement_metrics(alpha)
        assert row["peak_C_BC"] == pytest.approx(metrics.concurrence, abs=1e-9)
        assert row["peak_S_C"] == pytest.approx(metrics.entropy_atom2, abs=1e-9)
    # S_C collapses toward zero as the second atom decouples
    assert data["peak_S_C"][0] < 0.02 and data["peak_S_C"][-1] > 0.99


def test_wstate_summary(tmp_path):
    cfg = parse_config('scenario = "n_atom_wstate"\nn_atoms = 3\n')
    report = run_scenario(cfg, output_dir=str(tmp_path / "w"))
    assert report.summary["enhancement_over_single_atom"] == pytest.approx(
        np.sqrt(3.0), rel=1e-3
    )
    assert report.summary["peak_p_chi1"] > 0.99


def test_rabi_frequency_fft_cross_check():
    g = ghz_to_angular(9.0)
    lay = HilbertLayout(n_max=2, n_atoms=1)
    gen = model.build_generator(
        lay, SystemParams(detuning=0, kappa=0, gamma=0, couplings=(g,))
    )
    psi0 = fs.basis_state(lay, 1, "g")
    ts = np.linspace(0.0, 20 * np.pi / g, 4001)
    traj = dyn.integrate(gen, psi0, ts)
    series = traj.series("pop_0e")
    freqs = np.fft.rfftfreq(len(ts), d=ts[1] - ts[0])
    spectrum = np.abs(np.fft.rfft(series - series.mean()))
    f_fft = freqs[np.argmax(spectrum)]
    f_extrema = dyn.rabi_frequency(traj, "pop_0e")
    assert f_extrema == pytest.approx(f_fft, rel=0.01)
    assert f_extrema == pytest.approx(g / np.pi, rel=1e-4)


def test_fig5_workers_is_a_no_op(tmp_path):
    cfg = parse_config(
        'scenario = "fig5_position_map"\ndesign = "D3"\n'
        "[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\nsteps = 2\n"
        "[sweep.delta_y_nm]\nmin = 0.0\nmax = 20.0\nsteps = 2\n"
    )
    out1, out4 = str(tmp_path / "w1"), str(tmp_path / "w4")
    run_scenario(replace(cfg, workers=1), output_dir=out1)
    run_scenario(replace(cfg, workers=4), output_dir=out4)
    files = sorted(os.listdir(out1))
    assert sorted(os.listdir(out4)) == files
    assert len(files) == 4 + 4  # four trajectories, map, summary, config, manifest
    match, mismatch, errors = filecmp.cmpfiles(out1, out4, files, shallow=False)
    assert not mismatch and not errors

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(runner))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.startswith("concurrent") for name in imported)


SMALL_CONFIGS = {
    "fig2_single_atom": "dt_ns = 2e-4\nt_long_ns = 2.0\ndt_long_ns = 0.01\n",
    "fig3_two_atom": "t_end_ns = 0.12\ndt_ns = 5e-4\n",
    "fig4_correlations": "t_end_ns = 0.05\ndt_ns = 5e-4\n"
                         "[sweep.alpha]\nmin = 0.0\nmax = 1.0\nsteps = 3\n",
    "fig5_position_map": (
        "[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\nsteps = 2\n"
        "[sweep.delta_y_nm]\nmin = 0.0\nmax = 20.0\nsteps = 2\n"
    ),
    "n_atom_wstate": "t_end_ns = 0.06\ndt_ns = 2e-4\n",
    "custom": "n_atoms = 2\nt_end_ns = 0.05\n",
}


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
def test_every_trajectory_comes_from_the_one_path(scenario, monkeypatch):
    produced, calls = [], []
    real = runner.trajectory

    def counting(cfg, run, *args, **kwargs):
        out = real(cfg, run, *args, **kwargs)
        calls.append(run)
        for r, traj in zip(run, out) if isinstance(run, list) else [(run, out)]:
            start = fs.basis_state(traj.layout, r.n_photons, "g" * r.n_atoms)
            label = dyn.population_labels(traj.layout)[int(np.argmax(dense(traj.layout, start)))]
            assert traj.series(label)[0] == 1.0
            produced.append(traj)
        return out

    monkeypatch.setattr(runner, "trajectory", counting)
    cfg = parse_config(f'scenario = "{scenario}"\n' + SMALL_CONFIGS[scenario])
    runs, summary, tables = runner.run_plan(cfg)
    # fig5's small config is lossless: only it has the trap rows
    assert TRAP_ROWS & set(summary) == (TRAP_ROWS if scenario == "fig5_position_map" else set())
    assert all(any(t is p for p in produced) for t in runs.values())
    sweep = {"fig4_correlations": 3, "fig5_position_map": 4}.get(scenario, 0)
    assert sum(len(rows) for rows in tables.values()) == sweep
    kept = 0 if scenario == "fig5_position_map" else len(runs)
    assert len(produced) == kept + sweep
    # each fixed run alone, the sweep's few points as one stack
    assert len(calls) == kept + bool(sweep)


STACK_CONFIGS = {
    # lossy, so each point also steps x, the population of |0gg>, by its
    # jump Gramian; the sweep's five points keep no trajectory, only their
    # peaks
    "fig4": 'scenario = "fig4_correlations"\nt_end_ns = 0.05\ndt_ns = 5e-4\n'
            "[sweep.alpha]\nmin = 0.0\nmax = 2.0\nsteps = 5\n",
    # lossless; each of the five points is written as a trajectory file
    "fig5": 'scenario = "fig5_position_map"\n'
            "[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\nsteps = 5\n"
            "[sweep.delta_y_nm]\nmin = 0.0\nmax = 20.0\nsteps = 1\n",
}


def _arrays(traj) -> list:
    """The bytes of every array of a trajectory (bytes, so -0.0 differs from 0.0)."""
    return [("time_ns", traj.times.tobytes())] + [
        (name, traj.series(name).tobytes()) for name in traj.column_order]


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_sweep_points_propagate_as_one_stack_each_as_alone(name, monkeypatch):
    cfg = parse_config(STACK_CONFIGS[name])
    sizes, stacked = [], []
    real = dyn.integrate

    def recording(gen, *args, **kwargs):
        trajectories = real(gen, *args, **kwargs)
        sizes.append(len(trajectories))
        stacked.extend(map(_arrays, trajectories))
        return trajectories

    with monkeypatch.context() as patch:
        patch.setattr(dyn, "integrate", recording)
        runner.run_plan(cfg)
    assert sizes == [1] * (4 if name == "fig4" else 0) + [5]  # the sweep in one call
    # each point as one run alone, as a fixed run propagates
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    alone = [_arrays(runner.trajectory(cfg, run)) for _, run in plan.sweep.points(cfg)]
    assert stacked[-5:] == alone
    # the t = 0 entropies are -0.0, and stay so
    assert np.signbit(np.frombuffer(dict(alone[-1])["S_B"])[0])


def test_only_trajectory_builds_and_integrates():
    # the generator, the initial ket and the integrate call appear in one
    # function only
    tree = ast.parse(inspect.getsource(runner))
    users = {
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, (ast.Name, ast.Attribute))
        and (getattr(node, "id", None) or getattr(node, "attr", None))
        in ("build_generator", "integrate", "basis_state")
    }
    assert users == {"trajectory"}


PEAK_CONFIGS = {s: f'scenario = "{s}"\n' + text for s, text in SMALL_CONFIGS.items()} | {
    # d = 1024, of which 11 states are propagated: nothing is of size d^2
    "custom_lossy_n9": 'scenario = "custom"\nn_atoms = 9\nt_end_ns = 0.002\n',
    # lossy N = 6 from two photons: x is on the d_l = 8 states below the 22
    # of the start sector, so the Van Loan block has 8^2 + 22^2 = 548 rows
    # (from one photon d_l = 1); it dominates the estimate, also held within
    # 1.3 times the traced peak
    "custom_lossy_two_photon_n6": 'scenario = "custom"\nn_atoms = 6\nn_photons = 2\n'
                                  "t_end_ns = 0.05\n",
    # lossy D3 map: its 81 points, each with x on the ground state, in one
    # stack
    "fig5_lossy_d3": 'scenario = "fig5_position_map"\ndesign = "D3"\nlossless = false\n',
    # 2048 outputs: the CSV writer must free one block of rows before it
    # builds the next, or two are held at once
    "custom_two_csv_blocks": 'scenario = "custom"\nn_atoms = 5\nt_end_ns = 0.2047\n'
                             "dt_ns = 1e-4\n",
    # one point on the finest map: the summary's trap rule, 334 080 points of
    # the mean, outweighs the sweep
    "fig5_trap_rule_at_0.5nm": 'scenario = "fig5_position_map"\ndesign = "D3"\n'
                               "resolution_nm = 0.5\n"
                               "[sweep.delta_x_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n"
                               "[sweep.delta_y_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n",
    # four points at the far ends of the finest map: its reads compute the
    # nodes of their cells; every node between them would trace over 100 MB
    "fig5_wide_sweep_at_0.5nm": 'scenario = "fig5_position_map"\ndesign = "D3"\n'
                                "resolution_nm = 0.5\n"
                                "[sweep.delta_x_nm]\nmin = -1500.0\nmax = 1300.0\nsteps = 2\n"
                                "[sweep.delta_y_nm]\nmin = -270.0\nmax = 270.0\nsteps = 2\n",
}


@pytest.mark.parametrize("name", sorted(PEAK_CONFIGS))
def test_traced_peak_is_within_the_memory_estimate(name, tmp_path, monkeypatch):
    # one CPU: tracemalloc sees this process alone, so every block is
    # written here
    monkeypatch.setattr(config, "_usable_cpus", lambda: 1)
    cfg = parse_config(PEAK_CONFIGS[name])
    need, _ = config._log2_peak_bytes(cfg, SCENARIOS[cfg.scenario].plan(cfg))
    tracemalloc.start()
    try:
        run_scenario(cfg, output_dir=str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0**need
    if name == "custom_lossy_two_photon_n6":
        assert 2.0**need <= 1.3 * peak


def test_memory_estimate_of_the_readme_example():
    # README's worked example of the memory gate, quoted in
    # _log2_peak_bytes' docstring too: a change to the estimate updates both
    cfg = parse_config('scenario = "custom"\nlossless = true\nt_end_ns = 1.0\ndt_ns = 0.1\n')
    need, _ = config._log2_peak_bytes(cfg, SCENARIOS["custom"].plan(cfg))
    quoted = f"estimated at {round(2.0**need):,} B".replace(",", " ")
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert quoted in " ".join(readme.split())
    assert quoted in " ".join(config._log2_peak_bytes.__doc__.split())


def test_traced_peak_of_a_large_sweep_is_within_the_memory_estimate(tmp_path, monkeypatch):
    # 301 lossy points of 301 outputs in one stack: their kets, x and
    # columns, held at once, outweigh every fixed run
    cfg = parse_config('scenario = "fig4_correlations"\nt_end_ns = 0.02\ndt_ns = 5e-4\n'
                       "[sweep.alpha]\nmin = 0.0\nmax = 2.0\nsteps = 301\n")
    sizes = []
    real = dyn.integrate

    def recording(gens, *args, **kwargs):
        sizes.append(len(gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(dyn, "integrate", recording)
    need, key = config._log2_peak_bytes(cfg, SCENARIOS[cfg.scenario].plan(cfg))
    tracemalloc.start()
    try:
        run_scenario(cfg, output_dir=str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [1] * 4 + [301]
    assert key == ("sweep", "alpha", "steps")
    assert peak <= 2.0**need


@pytest.mark.parametrize("n_atoms", [13, 14])
def test_population_columns_left_at_zero_are_not_estimated_as_text(n_atoms, tmp_path):
    # d = 24576 and 49152 population columns, of which only the 15 and 16
    # propagated states can leave 0: the CSV writer converts no other one to
    # text.  Counting a block of rows of every column made the estimate
    # 13.75 and 13.79 times the traced peak; it measures 1.18 and 1.15
    cfg = parse_config(f'scenario = "custom"\nn_atoms = {n_atoms}\nt_end_ns = 0.05\n'
                       'observables = ["populations"]\n')
    need, _ = config._log2_peak_bytes(cfg, SCENARIOS[cfg.scenario].plan(cfg))
    tracemalloc.start()
    try:
        run_scenario(cfg, output_dir=str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0**need <= 1.3 * peak


def test_estimate_of_a_large_lossy_run_follows_its_arrays(tmp_path):
    # lossy N = 16 from one photon, recording n_photon: d = 196 608, of which
    # 18 states are propagated.  Counting six int64 arrays of length d that
    # integrate no longer allocates made the estimate 1.62 times the traced
    # peak; it measures 1.19
    cfg = parse_config('scenario = "custom"\nn_atoms = 16\nobservables = ["n_photon"]\n')
    need, _ = config._log2_peak_bytes(cfg, SCENARIOS[cfg.scenario].plan(cfg))
    tracemalloc.start()
    try:
        run_scenario(cfg, output_dir=str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0**need <= 1.3 * peak


NO_JUMP_CONFIGS = {
    "lossy_fig2": 'scenario = "fig2_single_atom"\nt_long_ns = 2.0\ndt_long_ns = 0.01\n'
                  "kappa_mhz = 3000.0\n",
    "detuned_fig3": 'scenario = "fig3_two_atom"\nt_end_ns = 0.12\ndetuning_ghz = 4.0\n',
    "fig5_2x2": 'scenario = "fig5_position_map"\n' + SMALL_CONFIGS["fig5_position_map"],
    "detuned_wstate_n4": 'scenario = "n_atom_wstate"\nn_atoms = 4\ndetuning_ghz = -3.0\n'
                         "couplings_ghz = [9.0, 4.0, 6.5, 11.0]\n",
    "lossy_custom_n3": 'scenario = "custom"\nn_atoms = 3\ncouplings_ghz = [9.0, 2.0, 5.0]\n'
                       "kappa_mhz = 40000.0\ngamma_mhz = 15000.0\nt_end_ns = 0.1\n",
    # d = 3072, of which 12 states are propagated
    "lossy_custom_n10": 'scenario = "custom"\nn_atoms = 10\ndetuning_ghz = 2.0\n'
                        "couplings_ghz = [9.0, 2.0, 5.0, 7.5, 3.0, 11.0, 6.0, 4.5, 8.0, 1.0]\n"
                        "kappa_mhz = 20000.0\ngamma_mhz = 5000.0\nt_end_ns = 0.1\n",
}


@pytest.mark.parametrize("name", sorted(NO_JUMP_CONFIGS))
def test_one_photon_runs_match_the_no_jump_oracle(name):
    # From |1, g..g> every jump lands in the stationary |0, g..g>, so
    # rho(t) = |psi><psi| + (1 - |psi|^2) |0, g..g><0, g..g| exactly, with
    # psi(t) = expm(-i H_eff t) psi0 on the one-excitation block and
    # H_eff = H - (i/2)(kappa a^dag a + gamma sum sigma^dag sigma)
    # (Dalibard, Castin & Molmer, PRL 68, 580 (1992)).  expm at each time,
    # not eig: H_eff can be defective at an exceptional point.
    cfg = parse_config(NO_JUMP_CONFIGS[name])
    kappa = mhz_to_angular(cfg.resolved_kappa_mhz)
    gamma = mhz_to_angular(cfg.resolved_gamma_mhz)
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    runs = [run for run in plan_runs(plan, cfg) if run.n_photons == 1]
    assert len(runs) == {"detuned_fig3": 2, "fig5_2x2": 4}.get(name, len(plan.runs))
    for run in runs:
        traj = runner.trajectory(cfg, run)
        n = run.n_atoms
        h_eff = np.diag([-0.5j * kappa] + [ghz_to_angular(cfg.detuning_ghz) - 0.5j * gamma] * n)
        h_eff[0, 1:] = h_eff[1:, 0] = [ghz_to_angular(g) for g in run.couplings_ghz]
        ground = "g" * n
        block = [(1, ground)] + [(0, ground[:i] + "e" + ground[i + 1:]) for i in range(n)]
        index = [int(np.argmax(dense(traj.layout, fs.basis_state(traj.layout, *s))))
                 for s in block]
        psi = np.array([expm(-1j * h_eff * t)[:, 0] for t in traj.times])
        expected = np.zeros((traj.times.size, traj.layout.dim))
        expected[:, index] = np.abs(psi) ** 2
        vacuum = int(np.argmax(dense(traj.layout, fs.basis_state(traj.layout, 0, ground))))
        expected[:, vacuum] = 1.0 - np.sum(np.abs(psi) ** 2, axis=1)
        pops = np.array([traj.series(p) for p in dyn.population_labels(traj.layout)]).T
        assert np.max(np.abs(pops - expected)) < 1e-12, run.name


# Two and 25 trajectory files: runner.write_trajectories splits their rows
# over as many processes as this process may use CPUs, here set by the
# tests.  fig2's `long` (6001 rows) is six blocks of CSV_BLOCK_ROWS and
# `short` (2001) two; each fig5 file (241 rows) is one, and their 6025 rows
# plan a child a block on three writers (config.trajectory_writers).
SPLIT_CONFIGS = {
    "fig2": 'scenario = "fig2_single_atom"\nt_long_ns = 12.0\ndt_long_ns = 0.002\n',
    "fig5": 'scenario = "fig5_position_map"\ndesign = "D1"\n'
            "[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\nsteps = 25\n"
            "[sweep.delta_y_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n",
}
CONTRACT_FILES = {"config.txt", "map.csv", "alpha_map.csv", "summary.csv", "manifest.json"}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _only_contract_files(out, descriptors: int):
    """`out` holds nothing but files of the output contract (no temporary
    file), and this process has `descriptors` open file descriptors again."""
    assert all(name in CONTRACT_FILES or re.fullmatch(r"traj_\w+\.csv", name)
               for name in os.listdir(out)), os.listdir(out)
    assert len(os.listdir("/proc/self/fd")) == descriptors


def _counting(monkeypatch, module, name: str) -> list:
    """Count the calls of module.name in this process, in the list returned
    (a child's own copy of the list grows unseen)."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _trajectories(**rows) -> dict:
    return {name: dyn.Trajectory(HilbertLayout(1, 1), np.zeros(n), {})
            for name, n in rows.items()}


def test_shares_cut_the_files_in_name_order_at_block_edges(monkeypatch):
    # 10 002 rows in 8 + 2 blocks, this process's share planned two blocks
    # longer than the child's: (10 002 + 2048) / 2 = 6025 rows, and the
    # nearest block edge is 6144
    assert runner.CHILD_BLOCKS * dyn.CSV_BLOCK_ROWS == 2048
    assert runner._shares(_trajectories(long=8001, short=2001), 2) == [
        [("long", 0, 6144)], [("long", 6144, 8001), ("short", 0, 2001)]]
    # files of one block are never cut
    assert runner._shares(_trajectories(a=1000, b=1000, c=1000), 2) == [
        [("a", 0, 1000), ("b", 0, 1000)], [("c", 0, 1000)]]
    # fig5's 81 files of 241 rows: the file edge nearest (19 521 + 2048) / 2
    assert [len(share) for share in runner._shares(
        _trajectories(**{f"r{i:02d}": 241 for i in range(81)}), 2)] == [45, 36]
    # one file cut twice on three writers, at the edges nearest 3032 and
    # 4016 rows, every share at least one block
    assert runner._shares(_trajectories(a=5000), 3) == [
        [("a", 0, 3072)], [("a", 3072, 4096)], [("a", 4096, 5000)]]
    assert runner._shares(_trajectories(a=1025), 2) == [[("a", 0, 1024)], [("a", 1024, 1025)]]
    # an empty trajectory is still written, its header alone; no trajectory
    # is one empty share
    assert runner._shares(_trajectories(a=0, b=2048), 2) == [
        [("a", 0, 0), ("b", 0, 1024)], [("b", 1024, 2048)]]
    assert runner._shares(_trajectories(), 1) == [[]]
    # a writer per CPU while each child is planned a block at least, of
    # (rows - 2048) / writers: a second from 4096 rows, where the child's
    # share is one block, and a third from 5120
    monkeypatch.setattr(config, "_usable_cpus", lambda: 4)
    assert [config.trajectory_writers(n) for n in (0, 1201, 1501, 4095, 4096, 5119, 5120,
                                                   6004, 19_521)] == [1, 1, 1, 1, 2, 2, 3, 3, 4]
    assert runner._shares(_trajectories(a=4096), 2) == [[("a", 0, 3072)], [("a", 3072, 4096)]]
    monkeypatch.delattr(os, "fork")
    assert config.trajectory_writers(19_521) == 1


@pytest.mark.parametrize("name", sorted(SPLIT_CONFIGS))
def test_split_writers_write_the_bytes_of_one(name, tmp_path, monkeypatch):
    forks = _counting(monkeypatch, os, "fork")
    tails = _counting(monkeypatch, tempfile, "TemporaryFile")
    cfg = parse_config(SPLIT_CONFIGS[name])
    descriptors = len(os.listdir("/proc/self/fd"))
    runs = []
    # at 64 rows a block, fig5's files are cut too
    for block_rows in (dyn.CSV_BLOCK_ROWS, 64):
        monkeypatch.setattr(dyn, "CSV_BLOCK_ROWS", block_rows)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(config, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"{block_rows}_{cpus}"
            run_scenario(cfg, output_dir=str(out))
            _no_child_left()
            _only_contract_files(out, descriptors)
            runs.append(out)
    # one fork on two CPUs and two on three, at either block size, and a
    # temporary file for each piece that starts inside a file: fig2 is cut
    # inside `long` once on two CPUs and on three, and twice on three at 64
    # rows a block; fig5's files are cut only at 64 rows a block, one file
    # on two CPUs and two on three
    assert len(forks) == 2 * (1 + 2)
    assert len(tails) == {"fig2": 1 + 1 + 1 + 2, "fig5": 0 + 0 + 1 + 2}[name]
    files = sorted(os.listdir(runs[0]))
    for out in runs[1:]:
        assert files == sorted(os.listdir(out))
        match, mismatch, errors = filecmp.cmpfiles(runs[0], out, files, shallow=False)
        assert not mismatch and not errors


def test_a_share_whose_fork_fails_is_written_in_process(tmp_path, monkeypatch):
    def failing():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    fork = os.fork
    for name, text in SPLIT_CONFIGS.items():
        cfg = parse_config(text)
        monkeypatch.setattr(config, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", fork)
        run_scenario(cfg, output_dir=str(tmp_path / name / "one"))
        monkeypatch.setattr(config, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", failing)
        # on three CPUs fig2's second share is the rest of `long`: that piece
        # goes through a temporary file here too, appended after the third
        # share is written
        tails = _counting(monkeypatch, tempfile, "TemporaryFile")
        descriptors = len(os.listdir("/proc/self/fd"))
        run_scenario(cfg, output_dir=str(tmp_path / name / "failed"))
        _only_contract_files(tmp_path / name / "failed", descriptors)  # each pipe closed
        assert len(tails) == {"fig2": 1, "fig5": 0}[name]
        files = sorted(os.listdir(tmp_path / name / "one"))
        assert files == sorted(os.listdir(tmp_path / name / "failed"))
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / name / "one",
                                                   tmp_path / name / "failed", files,
                                                   shallow=False)
        assert not mismatch and not errors


def _fig2_on_two_writers(tmp_path, monkeypatch):
    """(config path, output directory, rows of each trajectory) of fig2
    written on two processes: this one writes `long`'s first 5120 rows,
    and a child the rest of `long` and all of `short`."""
    monkeypatch.setattr(config, "_usable_cpus", lambda: 2)
    text = SPLIT_CONFIGS["fig2"]
    path = tmp_path / "cfg.toml"
    path.write_text(text)
    cfg = parse_config(text)
    rows = {run.name: run.outputs() for run in SCENARIOS[cfg.scenario].plan(cfg).runs}
    assert runner._shares(_trajectories(**rows), 2) == [
        [("long", 0, 5120)], [("long", 5120, 6001), ("short", 0, 2001)]]
    return str(path), tmp_path / "out", rows


@pytest.mark.parametrize("writer, blocked, written", [("parent", "long", "short"),
                                                      ("child", "short", "long")])
def test_a_failed_share_exits_2_and_leaves_no_child(writer, blocked, written, tmp_path,
                                                     monkeypatch, capsys):
    # the blocked file's path is a directory: open() raises IsADirectoryError
    # in the process that writes its first rows, and a child's comes back to
    # this one
    path, out, rows = _fig2_on_two_writers(tmp_path, monkeypatch)
    (out / f"traj_{blocked}.csv").mkdir(parents=True)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert main(["run", path, "--output-dir", str(out)]) == 2
    target = out / f"traj_{blocked}.csv"
    assert (f"error: cannot write outputs: [Errno 21] Is a directory: '{target}'"
            in capsys.readouterr().err)
    _no_child_left()
    _only_contract_files(out, descriptors)
    # the other share's piece of `written`, all of `short` or the first
    # 5120 rows of `long`, was written whole before the run ended, and no
    # tail was appended after a writer failed
    text = (out / f"traj_{written}.csv").read_text()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 2 + {"short": rows["short"], "long": 5120}[written]


def test_a_writer_that_ends_without_a_word_exits_2(tmp_path, monkeypatch, capsys):
    path, out, _ = _fig2_on_two_writers(tmp_path, monkeypatch)
    parent, write = os.getpid(), dyn.write_trajectory_csv

    def dying(traj, fh, *rows):
        if os.getpid() != parent:
            os._exit(7)
        write(traj, fh, *rows)

    monkeypatch.setattr(dyn, "write_trajectory_csv", dying)
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert "ended with exit code 7" in capsys.readouterr().err
    _no_child_left()


def test_memory_estimate_counts_each_writer(monkeypatch):
    # fig2 with 2001 outputs and 2095 or 2094, and lossless custom with 4096
    # or 4095 in one file: writing outweighs propagating any run, so a
    # second writer adds its text from 4096 rows, the fewest that plan a
    # child a block (trajectory_writers), and below that there is one
    def need(text, cpus):
        monkeypatch.setattr(config, "_usable_cpus", lambda: cpus)
        cfg = parse_config(text)
        return config._log2_peak_bytes(cfg, SCENARIOS[cfg.scenario].plan(cfg))[0]

    fig2 = 'scenario = "fig2_single_atom"\ndt_long_ns = 0.002\nt_long_ns = '
    custom = 'scenario = "custom"\nn_atoms = 2\nlossless = true\nt_end_ns = '
    for two_files, one_file, writers in ((4.188, 0.819, 2), (4.186, 0.8188, 1)):
        for text in (f"{fig2}{two_files}\n", f"{custom}{one_file}\n"):
            cfg = parse_config(text)
            rows = sum(run.outputs() for run in SCENARIOS[cfg.scenario].plan(cfg).runs)
            assert rows == 4094 + writers
            assert (need(text, 2) > need(text, 1)) == (writers == 2)
            assert need(text, 2) >= need(text, 1)
