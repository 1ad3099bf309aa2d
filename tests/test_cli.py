import filecmp
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cavitysim
from cavitysim import analytic, cli, config, coupling, dynamics
from cavitysim.cli import main
from cavitysim.config import parse_config
from cavitysim.runner import run_scenario
from cavitysim.units import ghz_to_angular, mhz_to_angular

from conftest import skew_x

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


# Detuned and strongly lossy: the exchange stops oscillating once its fast
# eigenmode has died, which the damped frequency alone does not foresee.
DETUNED_FIG2 = ('scenario = "fig2_single_atom"\ndetuning_ghz = 20.0\nkappa_mhz = 4e4\n'
                "t_end_ns = 0.1\n")


def test_run_exit_code_on_runtime_failure(tmp_path, capsys):
    # validate makes the frequency fit that run makes, so both reject the
    # config with the same message; a failure that only a run can show still
    # exits 2 (test_run_exits_2_when_x_leaves_hermitian)
    damped = _write(tmp_path, DETUNED_FIG2)
    error = ("line 4: t_end_ns: the fit to run 'short' over t_end_ns = 0.1 ns failed: "
             "need >= 3 extrema to estimate a frequency, found 1")
    assert main(["validate", damped]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {error}"]
    assert main(["run", damped, "--output-dir", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {error}"]
    assert not (tmp_path / "x").exists()


# The fit finds 3 or more extrema of P_chi1 within 0.05 ns at kappa = 2e4
# MHz, where a count from the damped frequency alone gives two.
DAMPED_WSTATE = 'scenario = "n_atom_wstate"\nt_end_ns = 0.05\nkappa_mhz = 2e4\n'


def test_damped_wstate_with_a_short_window_validates_and_runs(tmp_path):
    path = _write(tmp_path, DAMPED_WSTATE)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0


@st.composite
def small_configs(draw) -> str:
    """A config of any scenario but fig5's: N <= 4, up to two photons,
    random coupling, loss and detuning, any observables in any order, and
    at most 2000 outputs a run.  It leaves out the scenario's fixed keys,
    which take one value only."""
    scenario = draw(st.sampled_from(
        ["fig2_single_atom", "n_atom_wstate", "fig3_two_atom", "fig4_correlations", "custom"]))
    rate = st.one_of(st.just(0.0), st.floats(-3.0, 5.0).map(lambda e: 10.0**e))
    observables = draw(st.lists(st.sampled_from(dynamics.TRACKABLE), unique=True))
    lines = [
        f'scenario = "{scenario}"',
        f"n_atoms = {draw(st.integers(1, 4))}",
        f"n_photons = {draw(st.sampled_from([1, 2, 0]))}",
        f"g_ghz = {draw(st.floats(0.5, 20.0))!r}",
        f"alpha = {draw(st.floats(0.0, 2.0))!r}",
        f"kappa_mhz = {draw(rate)!r}",
        f"gamma_mhz = {draw(rate)!r}",
        f"detuning_ghz = {draw(st.floats(-30.0, 30.0))!r}",
        f"observables = {json.dumps(observables)}",
    ]
    for t_key, dt_key in (("t_end_ns", "dt_ns"), ("t_long_ns", "dt_long_ns")):
        t_end = draw(st.floats(0.01, 2.0))
        lines += [f"{t_key} = {t_end!r}", f"{dt_key} = {t_end / draw(st.integers(10, 1999))!r}"]
    fixed = config.SCENARIOS[scenario].fixed
    return "".join(line + "\n" for line in lines if line.split(" = ")[0] not in fixed)


# 2100 random draws found no config that validates and then fails to run;
# 60 fixed draws keep the suite fast.  The examples are two configs whose
# fits a closed-form count of extrema misjudges.  Each run that validates
# also stays within the memory gate's estimate of its traced peak.
@settings(max_examples=60)
@given(small_configs())
@example(DETUNED_FIG2)
@example(DAMPED_WSTATE)
def test_a_config_that_validates_runs(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.toml")
        with open(path, "w") as fh:
            fh.write(text)
        if main(["validate", path]) == 0:
            cfg = parse_config(text)
            need, _ = config._log2_peak_bytes(cfg, config.SCENARIOS[cfg.scenario].plan(cfg))
            tracemalloc.start()
            try:
                assert main(["run", path, "--output-dir", os.path.join(tmp, "out")]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2.0**need


def _count_integrate(monkeypatch) -> list:
    calls = []
    integrate = dynamics.integrate

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    return calls


def test_parse_config_propagates_nothing(monkeypatch):
    calls = _count_integrate(monkeypatch)
    for scenario in config.SCENARIOS:
        parse_config(f'scenario = "{scenario}"\n')
    assert calls == []


def test_run_propagates_each_run_once(tmp_path, monkeypatch):
    calls = _count_integrate(monkeypatch)
    path = _write(tmp_path, 'scenario = "fig2_single_atom"\n')
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0
    assert calls == [1, 1]  # short, then long: the summary's fits add none
    assert main(["validate", path]) == 0
    assert calls == [1, 1] * 2  # the same two runs, which both fits read


@pytest.mark.parametrize("rates", ["gamma_mhz = 0.0", "kappa_mhz = 0.0"])
def test_fig2_with_one_loss_rate_at_zero_runs(rates, tmp_path):
    # the envelope still decays over 2 / (kappa + gamma), but C = g^2 /
    # (kappa gamma) needs both rates: the summary leaves it out
    path = _write(tmp_path, f'scenario = "fig2_single_atom"\n{rates}\n')
    out = tmp_path / "out"
    assert main(["validate", path]) == 0
    assert main(["run", path, "--output-dir", str(out)]) == 0
    names = [line.split(",")[0] for line in (out / "summary.csv").read_text().splitlines()]
    assert "tau_r_ns" in names and "cooperativity" not in names


def test_run_exits_2_when_x_leaves_hermitian(tmp_path, monkeypatch, capsys):
    # one lossy atom from two photons over 101 outputs 0.5 ps apart: x is
    # propagated on the three states below the start sector (from one
    # photon it is the real population of |0g>)
    two_photons = _write(tmp_path, TINY_CUSTOM + "n_photons = 2\n")
    skew_x(monkeypatch, 40, 1e-10)
    assert main(["run", two_photons, "--output-dir", str(tmp_path / "x")]) == 2
    assert ("Hermiticity deviation 2.000e-10 of x at t=0.02 ns exceeds tolerance 1e-10"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()
    # validate propagates only what a summary fits: custom has nothing, fig2
    # its two lossy one-photon runs, whose trace gate an expm fault trips
    assert main(["validate", two_photons]) == 0
    exact = dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: (1.0 + 1e-6) * exact(a))
    assert main(["validate", _write(tmp_path, 'scenario = "fig2_single_atom"\n')]) == 2
    assert "trace deviation" in capsys.readouterr().err


@pytest.mark.parametrize("lossless", ["true", "false"])
def test_validate_rejects_fig2_beyond_one_photon(lossless, tmp_path, capsys):
    # fig2's summary measures the one-photon exchange against g/pi: from two
    # photons the lossless run found no extrema in pop_0e at run, and the
    # lossy one compared the two-photon exchange with g/pi
    text = f'scenario = "fig2_single_atom"\nlossless = {lossless}\nn_photons = 2\n'
    path = _write(tmp_path, text)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "line 3: n_photons: must be 1 for fig2_single_atom" in err and "got 2" in err
    assert main(["run", path, "--output-dir", str(tmp_path / "x")]) == 1
    assert main(["validate", _write(tmp_path, text.replace("= 2", "= 1"))]) == 0


def test_validate_rejects_over_memory_config(tmp_path, capsys, monkeypatch):
    # lossy N = 7 from 7 photons keeps the 128 states with 7 excitations as
    # a ket and the 448 below them as a density block, and would take expm
    # of a Van Loan block of 448^2 + 128^2 = 217088 rows (~7.5 TB); the
    # estimate rejects it before any array is allocated
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 10**9)
    big = _write(tmp_path, 'scenario = "custom"\nn_atoms = 7\nn_photons = 7\n',
                 name="big.cfg")
    tracemalloc.start()
    try:
        assert main(["validate", big]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert "GB at peak" in capsys.readouterr().err
    # lossy N = 13 from one photon propagates 15 of d = 24576 states and
    # builds nothing of size d^2: of the population columns, only those 15
    # are arrays, the others a name each and constant text
    for n_atoms in (4, 11, 13, 16, 17):
        ok = _write(tmp_path, f'scenario = "custom"\nn_atoms = {n_atoms}\n', name="ok.cfg")
        assert main(["validate", ok]) == 0
    capsys.readouterr()
    # N = 18: d = 786432 population columns, more than POPULATIONS_MAX_DIM
    over = _write(tmp_path, 'scenario = "custom"\nn_atoms = 18\n', name="over.cfg")
    assert main(["validate", over]) == 1
    err = capsys.readouterr().err
    assert "line 0: observables:" in err and "786432 for run 'custom'" in err


def test_validate_caps_the_population_columns(tmp_path, capsys, monkeypatch):
    # lossless N = 17 from two photons: d = 4 * 2^17 = POPULATIONS_MAX_DIM.
    # custom propagates nothing at validate, so no CSV of d columns is written
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 10**9)
    assert dynamics.POPULATIONS_MAX_DIM == 2**19
    text = ('scenario = "custom"\nlossless = true\nn_atoms = 17\n'
            'observables = ["populations", "n_photon"]\n')
    assert main(["validate", _write(tmp_path, text + "n_photons = 2\n")]) == 0
    capsys.readouterr()
    # from three photons d = 5 * 2^17; without populations it validates
    assert main(["validate", _write(tmp_path, text + "n_photons = 3\n")]) == 1
    assert capsys.readouterr().err.endswith(
        "line 4: observables: 'populations' would write a column per basis state, 655360 "
        "for run 'custom', more than the 524288 of dynamics.POPULATIONS_MAX_DIM\n")
    assert main(["validate", _write(tmp_path, text.replace('"populations", ', "")
                                    + "n_photons = 3\n")]) == 0


@pytest.mark.parametrize("text,key,reason", [
    # 1e10 outputs: the time column alone is 80 GB
    ('scenario = "custom"\nt_end_ns = 1.0\ndt_ns = 1e-10\n', "line 3: dt_ns:", "GB at peak"),
    ('scenario = "fig2_single_atom"\ndt_long_ns = 1e-9\n', "line 2: dt_long_ns:",
     "GB at peak"),
    ('scenario = "fig5_position_map"\n[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\n'
     "steps = 100000\n", "line 5: sweep.delta_x_nm.steps:", "GB at peak"),
    # the plan holds no coupling per atom, and no 2^N is built, before the
    # int64 bound on a basis index names the key
    ('scenario = "n_atom_wstate"\nn_atoms = 10000000000\n', "line 2: n_atoms:",
     "d = 3 * 2^10000000000 basis states, more than the 2^63 that an int64 index reaches"),
], ids=["output_grid", "fig2_long_grid", "fig5_sweep_points", "wstate_atom_count"])
def test_validate_counts_output_grid(text, key, reason, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 10**9)
    path = _write(tmp_path, text)
    tracemalloc.start()
    try:
        assert main(["validate", path]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    err = capsys.readouterr().err
    assert key in err and reason in err
    for scenario in config.SCENARIOS:
        assert main(["validate", _write(tmp_path, f'scenario = "{scenario}"\n')]) == 0


def test_validate_sizes_a_sweep_as_one_stack(tmp_path, capsys, monkeypatch):
    # 4001 lossy fig4 points propagate as one stack, about 71 kB of estimate
    # a point: 0.286 GB, more than a 0.1 GB host has
    monkeypatch.setattr(config, "_physical_memory", lambda: 10**8)
    path = _write(tmp_path, 'scenario = "fig4_correlations"\n'
                            "[sweep.alpha]\nmin = 0.0\nmax = 2.0\nsteps = 4001\n")
    assert main(["validate", path]) == 1
    assert capsys.readouterr().err.endswith(
        "line 5: sweep.alpha.steps: the run needs about 0.286 GB at peak, more than the "
        "0.1 GB of physical memory\n")


def test_memory_error_during_run_exits_2(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, output_dir=None):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    assert main(["run", _write(tmp_path, TINY_CUSTOM)]) == 2
    assert "cannot allocate" in capsys.readouterr().err


def test_lossy_five_atom_wstate_validates_and_runs(tmp_path, monkeypatch):
    # a fixed 8 GB host: the full-space 9216^2 Liouvillian needed ~11 GB, the
    # 49^2 one on the 7 states with at most one excitation needs kilobytes
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 10**9)
    path = _write(tmp_path, 'scenario = "n_atom_wstate"\nn_atoms = 5\n')
    assert main(["validate", path]) == 0
    out = tmp_path / "run"
    assert main(["run", path, "--output-dir", str(out)]) == 0

    cfg = parse_config((tmp_path / "cfg.txt").read_text())
    assert cfg.resolved_kappa_mhz > 0 and cfg.resolved_gamma_mhz > 0
    data = np.genfromtxt(out / "traj_wstate.csv", delimiter=",", names=True,
                         skip_header=1)
    assert cfg.resolved_couplings_ghz() == (cfg.g_ghz,) * 5
    t = data["time_ns"]
    g = ghz_to_angular(cfg.g_ghz) * np.sqrt(5)  # collective coupling
    kappa = mhz_to_angular(cfg.resolved_kappa_mhz)
    gamma = mhz_to_angular(cfg.resolved_gamma_mhz)
    decay = np.exp(-(kappa + gamma) * t / 2)
    # sin^2(g sqrt(N) t) e^{-(kappa+gamma) t/2} drops the frequency shift
    # from the unequal decay of |1,g..g> and |0,W>: 6.7e-7 measured
    assert np.max(np.abs(data["P_chi1"] - np.sin(g * t) ** 2 * decay)) < 2e-6
    # the no-jump two-level form keeps it: 1.3e-14 measured
    omega = np.sqrt(g**2 - ((kappa - gamma) / 4) ** 2)
    exact = (g / omega * np.sin(omega * t)) ** 2 * decay
    assert np.max(np.abs(data["P_chi1"] - exact)) < 1e-12


def test_lossy_fifty_atom_wstate_validates_on_a_small_host(tmp_path, monkeypatch):
    # from one photon x is the population of |0, g..g>, stepped by the jump
    # Gramian of a block of 2 * 51 rows: about 5 MB of estimate.  Through a
    # Van Loan block of 1 + 51^2 = 2602 rows it was about 1.09 GB, more than
    # this 0.1 GB host has
    monkeypatch.setattr(config, "_physical_memory", lambda: 10**8)
    path = _write(tmp_path, 'scenario = "n_atom_wstate"\nn_atoms = 50\n'
                            'observables = ["n_photon"]\n')
    assert main(["validate", path]) == 0
    out = tmp_path / "run"
    assert main(["run", path, "--output-dir", str(out)]) == 0
    summary = dict(line.split(",") for line in (out / "summary.csv").read_text().splitlines())
    assert abs(float(summary["enhancement_over_single_atom"]) - np.sqrt(50)) < 1e-3


def test_lossless_fifty_atom_wstate_validates_and_runs(tmp_path, monkeypatch, capsys):
    # d = 3 * 2^50 states, of which the 52 up to one excitation are
    # propagated; nothing of length d is built without populations.  A basis
    # index is an int64: N = 61 (d = 3 * 2^61) is the largest that validates,
    # and N = 62 is named for that bound, before the memory gate
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 10**9)
    wstate = 'scenario = "n_atom_wstate"\nlossless = true\nobservables = ["n_photon"]\n'
    path = _write(tmp_path, wstate + "n_atoms = 50\n")
    assert main(["validate", path]) == 0
    out = tmp_path / "run"
    assert main(["run", path, "--output-dir", str(out)]) == 0
    summary = dict(line.split(",") for line in (out / "summary.csv").read_text().splitlines())
    assert abs(float(summary["enhancement_over_single_atom"]) - np.sqrt(50)) < 1e-3
    assert main(["validate", _write(tmp_path, wstate + "n_atoms = 61\n")]) == 0
    capsys.readouterr()
    assert main(["validate", _write(tmp_path, wstate + "n_atoms = 62\n")]) == 1
    assert capsys.readouterr().err.endswith(
        "line 4: n_atoms: d = 3 * 2^62 basis states, more than the 2^63 that an int64 index "
        "reaches\n")


def test_fine_field_map_validates_and_runs(tmp_path, monkeypatch):
    # fig5 reads the map only at the 8 nodes around each probe point, so a
    # 0.5 nm grid (6401 x 1081 x 681 nodes) needs no more memory than 5 nm
    monkeypatch.setattr(config, "_physical_memory", lambda: 8 * 10**9)
    fine = _write(tmp_path, 'scenario = "fig5_position_map"\ndesign = "D3"\n'
                  "resolution_nm = 0.5\n")
    assert main(["validate", fine]) == 0
    out = tmp_path / "out"
    assert main(["run", fine, "--output-dir", str(out)]) == 0
    rows = np.genfromtxt(out / "map.csv", delimiter=",", names=True)
    assert rows.size == 81
    for alpha, peak in zip(rows["alpha"], rows["peak_C_BC"]):
        assert abs(peak - analytic.peak_entanglement_metrics(alpha).concurrence) < 1e-4


def test_fig5_builds_no_field_map(tmp_path, monkeypatch):
    def no_map(*args, **kwargs):
        raise AssertionError("fig5 built the full field map")

    monkeypatch.setattr(coupling, "synth_fieldmap", no_map)
    cfg_path = _write(tmp_path, SMALL_FIG5)
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "out")]) == 0


def test_every_exported_name_resolves():
    # a function moved out of the package must not stay in __all__
    assert [name for name in cavitysim.__all__ if not hasattr(cavitysim, name)] == []


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


def test_validate_and_run_load_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing it costs each cavitysim
    # process about half a second before any work.  Nor is a process pool
    # imported: the trajectory writers are bare forks (runner.write_trajectories),
    # two on a 2-CPU host for these 5002 rows.  The one-point fig5 map is the
    # run path of `coupling`, whose shape constants are calibrated with scipy
    # in the tests only.
    configs = [
        ('scenario = "fig2_single_atom"\nt_long_ns = 6.0\ndt_long_ns = 0.002\n', "fig2"),
        ('scenario = "fig5_position_map"\n'
         "[sweep.delta_x_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n"
         "[sweep.delta_y_nm]\nmin = 0.0\nmax = 0.0\nsteps = 1\n", "fig5"),
    ]
    script = "import sys\nimport cavitysim, cavitysim.cli\n"
    for text, name in configs:
        cfg_path = _write(tmp_path, text, f"{name}.txt")
        out_dir = str(tmp_path / name)
        script += (
            f"assert cavitysim.cli.main(['validate', {cfg_path!r}]) == 0\n"
            f"assert cavitysim.cli.main(['run', {cfg_path!r}, '--output-dir', {out_dir!r}]) == 0\n"
        )
    script += (
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'multiprocessing')\n"
        "             or m.startswith('concurrent.futures')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
