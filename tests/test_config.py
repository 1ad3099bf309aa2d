import tomllib
from dataclasses import MISSING, fields, replace

import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavitysim import config, presets, runner
from cavitysim.cli import main
from cavitysim.config import (
    SCENARIOS,
    SWEEP_AXES,
    ConfigError,
    ExperimentConfig,
    SweepAxis,
    canonical_text,
    parse_config,
)
from cavitysim.fockspace import HilbertLayout


def _errors(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


def test_minimal_config_fills_defaults():
    cfg = parse_config('scenario = "fig2_single_atom"\n')
    assert cfg.design == "D1"
    assert cfg.g_ghz == 9.0
    assert cfg.q_factor == 1.3e7
    assert cfg.detuning_ghz == 0.0                      # resonant
    # each run holds its start photons and one guard level above them
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    assert [run.layout() for run in plan.runs] == [HilbertLayout(n_max=2, n_atoms=1)] * 2
    assert cfg.resolved_kappa_mhz == pytest.approx(29.5653, rel=1e-4)
    assert cfg.resolved_gamma_mhz == presets.GAMMA_RB87_D2_MHZ


def test_design_presets_feed_defaults():
    cfg = parse_config('scenario = "fig2_single_atom"\ndesign = "D2"\n')
    assert cfg.g_ghz == pytest.approx(presets.DESIGNS["D2"].g_ghz)
    assert cfg.q_factor == 1.2e7


def test_negative_rate_is_a_named_range_error(tmp_path):
    errors = _errors('scenario = "fig2_single_atom"\nkappa_mhz = -3\n')
    assert any("kappa_mhz" in e and "line 2" in e for e in errors)
    # the synthetic-map resolution range comes from coupling
    for resolution in ("0.4", "5.5"):
        text = f'scenario = "fig5_position_map"\nresolution_nm = {resolution}\n'
        assert _errors(text) == [
            f"line 2: resolution_nm: must be in [0.5, 5], got {resolution}"
        ]
        path = tmp_path / "cfg.toml"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1


def test_resolution_is_range_checked_only_for_fig5(tmp_path):
    # no other scenario reads the synthetic map, and only fig2_single_atom
    # reads the long run's grid: elsewhere each key keeps its default, and a
    # value off it is the one error, in range or not
    path = tmp_path / "cfg.toml"
    for line, default in (("resolution_nm = 0.4", "5.0"), ("resolution_nm = 1.0", "5.0"),
                          ("t_long_ns = -1.0", "40.0"), ("dt_long_ns = 0.0", "0.005")):
        key, value = line.split(" = ")
        path.write_text(f'scenario = "custom"\n{line}\n')
        assert _errors(path.read_text()) == [
            f"line 2: {key}: must be {default} for custom, got {value}"]
        assert main(["validate", str(path)]) == 1
    for line in ("t_long_ns = -1.0", "dt_long_ns = 0.0"):
        key, value = line.split(" = ")
        path.write_text(f'scenario = "fig2_single_atom"\n{line}\n')
        assert _errors(path.read_text()) == [f"line 2: {key}: must be > 0, got {value}"]
        assert main(["validate", str(path)]) == 1


def test_unknown_key_is_hard_error():
    errors = _errors('scenario = "fig2_single_atom"\ngg_ghz = 9.0\n')
    assert any("unknown key 'gg_ghz'" in e for e in errors)


def test_unknown_scenario():
    errors = _errors('scenario = "fig9_dreams"\n')
    assert any("unknown scenario" in e for e in errors)


def test_missing_scenario():
    errors = _errors("g_ghz = 9.0\n")
    assert any("missing required key 'scenario'" in e for e in errors)


def test_duplicate_key_rejected():
    errors = _errors('scenario = "custom"\ng_ghz = 9.0\ng_ghz = 8.0\n')
    assert len(errors) == 1 and errors[0].startswith("line 3: ")


@pytest.mark.parametrize("key", ["frame = \"lab\"", "seed = 5", "snapshot_stride = 1",
                                 "dissipator_form = \"literal\"", "n_max = 2"])
def test_removed_keys_are_unknown(key, tmp_path):
    errors = _errors(f'scenario = "custom"\n{key}\n')
    name = key.split()[0]
    assert errors == [f"line 2: unknown key {name!r}"]
    path = tmp_path / "cfg.toml"
    path.write_text(f'scenario = "custom"\n{key}\n')
    assert main(["validate", str(path)]) == 1


def test_type_errors_name_the_key():
    errors = _errors('scenario = "custom"\nworkers = 1.5\nlossless = 7\ndesign = 3\n')
    assert errors == [
        "line 2: workers: expected an integer, got 1.5",
        "line 3: lossless: expected true or false, got 7",
        "line 4: design: expected a quoted string, got 3",
    ]


@pytest.mark.parametrize("line, error", [
    ("detuning_ghz = nan", "line 3: detuning_ghz: expected a finite number, got nan"),
    ("detuning_ghz = inf", "line 3: detuning_ghz: expected a finite number, got inf"),
    ("kappa_mhz = inf", "line 3: kappa_mhz: expected a finite number, got inf"),
    ("gamma_mhz = -inf", "line 3: gamma_mhz: expected a finite number, got -inf"),
    ("alpha = inf", "line 3: alpha: expected a finite number, got inf"),
    ("q_factor = inf", "line 3: q_factor: expected a finite number, got inf"),
    ("lambda_nm = inf", "line 3: lambda_nm: expected a finite number, got inf"),
    ("g_ghz = 1" + "0" * 400, "line 3: g_ghz: expected a finite number, got 1" + "0" * 400),
    ("couplings_ghz = [1.0, nan]",
     "line 3: couplings_ghz: expected a [list] of finite numbers, got [1.0, nan]"),
])
def test_non_finite_numbers_are_type_errors(line, error, tmp_path):
    # TOML reads nan and inf as floats; none of them is a value any key takes
    text = f'scenario = "custom"\nn_atoms = 2\n{line}\n'
    assert _errors(text) == [error]
    path = tmp_path / "cfg.toml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# a sweep key is typed as any other key, at its own line
SWEEP_TYPE_ERRORS = {
    "min = nan\nmax = 1.0": "line 3: sweep.alpha.min: expected a finite number, got nan",
    "min = 0.0\nmax = inf": "line 4: sweep.alpha.max: expected a finite number, got inf",
}


@pytest.mark.parametrize("bounds", sorted(SWEEP_TYPE_ERRORS))
def test_non_finite_sweep_bounds_are_errors(bounds, tmp_path):
    text = f'scenario = "fig4_correlations"\n[sweep.alpha]\n{bounds}\nsteps = 3\n'
    assert _errors(text) == [SWEEP_TYPE_ERRORS[bounds]]
    path = tmp_path / "cfg.toml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1


def test_sweep_steps_type_error_names_the_value():
    text = 'scenario = "fig4_correlations"\n[sweep.alpha]\nmin = 0.0\nmax = 1.0\nsteps = 2.0\n'
    assert _errors(text) == ["line 5: sweep.alpha.steps: expected an integer, got 2.0"]


# numeric keys with no lowest value in _BOUNDS: a detuning and a fig5
# displacement take either sign (the map's grid bounds a displacement),
# resolution_nm has its own interval (coupling.SYNTH_RESOLUTION_RANGE), and
# an alpha sweep's max is at least its min
UNBOUNDED = {("detuning_ghz",), ("resolution_nm",), ("sweep", "alpha", "max")} | {
    ("sweep", axis, k) for axis in ("delta_x_nm", "delta_y_nm") for k in ("min", "max")}


def test_every_numeric_key_is_bounded_or_named_unbounded():
    numeric = {path for path, (*_, kind) in config._KEY_TYPES.items() if kind in (int, float)}
    assert {(f.name,) for f in fields(ExperimentConfig) if f.type in (int, float)} <= numeric
    assert numeric == set(config._BOUNDS) | UNBOUNDED
    assert not set(config._BOUNDS) & UNBOUNDED


def _bounded_config(path: tuple, value) -> tuple:
    """(config text setting `value` at `path`, line of that key): a scenario
    that runs the key, every other key valid."""
    if path[0] == "sweep":
        scenario = "fig4_correlations" if path[1] == "alpha" else "fig5_position_map"
        table = {"min": 0.0, "max": 1.0, "steps": 3} | {path[2]: value}
        return (f'scenario = "{scenario}"\n[sweep.{path[1]}]\n'
                + "".join(f"{k} = {v!r}\n" for k, v in table.items()),
                3 + list(table).index(path[2]))
    scenario = "fig2_single_atom" if path[0] in SCENARIOS["custom"].fixed else "custom"
    return f'scenario = "{scenario}"\n{path[0]} = {value!r}\n', 2


@pytest.mark.parametrize("path", list(config._BOUNDS), ids=".".join)
def test_each_bound_rejects_a_value_just_outside_it(path, tmp_path):
    low, inclusive = config._BOUNDS[path]
    kind = config._KEY_TYPES[path][2]
    if kind is int:
        outside = low - 1 if inclusive else low
    else:
        outside = math.nextafter(float(low), -math.inf) if inclusive else float(low)
    text, line = _bounded_config(path, outside)
    op = ">=" if inclusive else ">"
    assert _errors(text) == [f"line {line}: {'.'.join(path)}: must be {op} {low}, got {outside}"]
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(text)
    assert main(["validate", str(cfg_path)]) == 1
    if inclusive:  # the bound itself is a value the key takes
        parse_config(_bounded_config(path, kind(low))[0])


def _readme_key_table() -> dict:
    """README's table of keys: dotted path -> (type, bound, default) cells,
    a `sweep.<axis>` row taken for each axis without a row of its own."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    head = "| key | type | bound | default |\n|---|---|---|---|\n"
    assert text.count(head) == 1
    rows = {}
    for line in text.split(head)[1].split("\n\n")[0].splitlines():
        key, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = tuple(cells)
    table = {tuple(key.split(".")): cells for key, cells in rows.items() if "<" not in key}
    for key, cells in rows.items():
        for axis in SWEEP_AXES if "<axis>" in key else ():
            table.setdefault(tuple(key.replace("<axis>", axis).split(".")), cells)
    return table


def test_readme_key_table_restates_the_type_and_bound_tables():
    table = _readme_key_table()
    assert set(table) == set(config._KEY_TYPES)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for path, (kind, bound, default) in table.items():
        assert kind == config._KEY_TYPES[path][1], path
        stated = re.match(r"(>=?) (\S+)", bound)
        if path in config._BOUNDS:
            low, inclusive = config._BOUNDS[path]
            assert stated and stated.groups() == (">=" if inclusive else ">", str(low)), path
        else:
            assert not stated, path
        if default.startswith("`"):  # a literal: the ExperimentConfig default
            assert default.split("`")[1] == config._format_value(defaults[path[0]]), path


def test_malformed_values():
    # tomllib stops at the first syntax error, so each config holds one
    for text in (
        'scenario = "custom"\ng_ghz = \n',                   # missing value
        'scenario = "custom"\nalpha = [1.0,\n',               # unterminated list
        'scenario = "custom"\nt_end_ns = "x\nalpha = 1.0\n',  # unterminated string
        'scenario = "custom"\n[sweep.alpha\n',                # malformed header
        'scenario = "custom"\ng_ghz 9.0\n',                   # no "="
    ):
        errors = _errors(text)
        assert len(errors) == 1 and errors[0].startswith("line 2: "), (text, errors)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(
        '# full line comment\nscenario = "custom"  # trailing comment\n\n'
        'output_dir = "run#1"\n'
    )
    assert cfg.output_dir == "run#1"  # hash inside quotes survives


def test_couplings_length_checked():
    errors = _errors('scenario = "custom"\nn_atoms = 2\ncouplings_ghz = [9.0]\n')
    assert any("couplings_ghz" in e for e in errors)
    cfg = parse_config('scenario = "custom"\nn_atoms = 2\ncouplings_ghz = [9.0, 6.3]\n')
    assert cfg.resolved_couplings_ghz() == (9.0, 6.3)


def test_alpha_expands_to_couplings():
    cfg = parse_config('scenario = "fig3_two_atom"\nalpha = 0.5\n')
    assert cfg.resolved_couplings_ghz() == (9.0, 4.5)


def test_lossless_zeroes_rates():
    cfg = parse_config('scenario = "custom"\nlossless = true\n')
    assert cfg.resolved_kappa_mhz == 0.0
    assert cfg.resolved_gamma_mhz == 0.0


def test_observables_validated():
    errors = _errors('scenario = "custom"\nobservables = ["populations", "spin"]\n')
    assert any("observables" in e and "spin" in e for e in errors)


def test_sweep_parsing_and_validation():
    cfg = parse_config(
        'scenario = "fig5_position_map"\n'
        "[sweep.delta_x_nm]\nmin = 0.0\nmax = 10.0\nsteps = 3\n"
    )
    ax = cfg.sweep("delta_x_nm")
    assert ax == SweepAxis("delta_x_nm", 0.0, 10.0, 3)
    assert list(ax.values()) == [0.0, 5.0, 10.0]
    # the unspecified axis arrives from scenario defaults
    assert cfg.sweep("delta_y_nm") is not None

    errors = _errors(
        'scenario = "fig5_position_map"\n[sweep.delta_x_nm]\nmin = 5.0\nmax = 1.0\nsteps = 2\n'
    )
    assert any("below min" in e for e in errors)
    errors = _errors(
        'scenario = "fig5_position_map"\n[sweep.delta_x_nm]\nmin = 0.0\nmax = 1.0\nsteps = 0\n'
    )
    assert any("steps" in e for e in errors)
    errors = _errors('scenario = "fig5_position_map"\n[sweep.banana]\nmin = 0\nmax = 1\nsteps = 2\n')
    assert any("unknown sweep axis" in e for e in errors)
    errors = _errors('scenario = "fig5_position_map"\n[sweep.delta_x_nm]\nmin = 0.0\n')
    assert any("missing" in e for e in errors)
    errors = _errors('scenario = "custom"\n[weird]\nx = 1\n')
    assert any("unknown section" in e for e in errors)


def test_fig5_requires_mapped_design():
    errors = _errors('scenario = "fig5_position_map"\ndesign = "D2"\n')
    assert any("synthetic map" in e for e in errors)


def test_single_step_sweep_axis():
    cfg = parse_config(
        'scenario = "fig5_position_map"\n'
        "[sweep.delta_x_nm]\nmin = 7.0\nmax = 7.0\nsteps = 1\n"
    )
    assert list(cfg.sweep("delta_x_nm").values()) == [7.0]


@pytest.mark.parametrize("scenario", [
    "fig2_single_atom", "fig3_two_atom", "fig4_correlations",
    "fig5_position_map", "n_atom_wstate", "custom",
])
def test_canonical_round_trip(scenario):
    cfg = parse_config(f'scenario = "{scenario}"\nworkers = 3\n')
    text = canonical_text(cfg)
    assert parse_config(text) == cfg
    # canonical text is itself canonical, and plain TOML for outside tools
    assert canonical_text(parse_config(text)) == text
    assert tomllib.loads(text)["scenario"] == scenario


# Between them, a value off the ExperimentConfig default for every field, so
# that a key missing from the type table or the canonical text breaks the
# round trip.  Each scenario holds the keys of its `fixed` at their
# defaults, so no one config sets them all: fig4, the one with an alpha
# sweep, sets most, and fig2, fig5 and custom the keys only they vary.
EVERY_FIELD = (
    'scenario = "fig4_correlations"\ndesign = "D2"\nn_atoms = 2\n'
    'g_ghz = 7.5\nalpha = 0.62\n'
    'q_factor = 2e6\nkappa_mhz = 12.5\ngamma_mhz = 5.5\nlambda_nm = 800.0\n'
    'detuning_ghz = 0.25\nlossless = true\nt_end_ns = 0.2\ndt_ns = 1e-4\n'
    'observables = ["populations"]\nworkers = 2\noutput_dir = "runs/every field"\n'
    '[sweep.alpha]\nmin = 0.5\nmax = 1.5\nsteps = 3\n',
    'scenario = "fig2_single_atom"\nt_long_ns = 20.0\ndt_long_ns = 0.01\n',
    'scenario = "fig5_position_map"\nresolution_nm = 4.0\n',
    'scenario = "custom"\nn_atoms = 3\nn_photons = 2\ncouplings_ghz = [1.0, 2.5, 3]\n',
)


def test_round_trip_preserves_overrides():
    cfgs = [parse_config(src) for src in (
        'scenario = "fig3_two_atom"\nalpha = 0.62\ngamma_mhz = 5.5\n'
        'lossless = true\nobservables = ["populations"]\n',
    ) + EVERY_FIELD]
    for cfg in cfgs:
        assert parse_config(canonical_text(cfg)) == cfg
    # EVERY_FIELD leaves no field at its default in all of its configs
    every = cfgs[1:]
    assert [f.name for f in fields(ExperimentConfig) if f.default is not MISSING
            and all(getattr(cfg, f.name) == f.default for cfg in every)] == []
    assert every[-1].couplings_ghz == (1.0, 2.5, 3.0)


@settings(max_examples=200, deadline=None)
@given(st.text())
@example("C:\\runs\\new")
@example('say "hi"')
@example("tab\tline\nbreak\x7f")
@example("\U00010000")
def test_round_trip_any_output_dir(output_dir):
    cfg = replace(parse_config('scenario = "custom"\n'), output_dir=output_dir)
    assert parse_config(canonical_text(cfg)) == cfg


def test_key_locations_in_sweep_tables():
    errors = _errors(
        'scenario = "fig5_position_map"\n\n[sweep.delta_x_nm]\nmin = 0.0\n'
        'max = 1.0\nsteps = 0\nstep = 2\n[sweep.beta]\nmin = 0\n'
    )
    assert errors == [
        "line 7: unknown sweep key 'step' (min/max/steps)",
        "line 8: unknown sweep axis 'beta'; valid axes: delta_x_nm, delta_y_nm, alpha",
        "line 6: sweep.delta_x_nm.steps: must be >= 1, got 0",
    ]


@pytest.mark.parametrize("scenario, axis", [
    ("custom", "alpha"), ("fig5_position_map", "alpha"),
    ("fig4_correlations", "delta_x_nm"), ("fig2_single_atom", "delta_y_nm"),
])
def test_sweep_table_of_an_axis_the_scenario_does_not_run(scenario, axis, tmp_path):
    text = f'scenario = "{scenario}"\n\n[sweep.{axis}]\nmin = 0.0\nmax = 1.0\nsteps = 2\n'
    errors = _errors(text)
    assert len(errors) == 1
    assert errors[0].startswith(f"line 3: sweep.{axis}: {scenario} runs no {axis} sweep")
    path = tmp_path / "cfg.toml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1


# A list that lacks what the summary or table reads is completed: every
# run records the list, then each observable the scenario reads that it lacks.
@pytest.mark.parametrize("scenario, observables, column", [
    ("fig2_single_atom", '["n_photon"]', "pop_0e"),          # the Rabi fit
    ("fig3_two_atom", '["n_photon", "entropies"]', "pop_0eg"),  # the splitting
    ("fig5_position_map", '["populations", "concurrence"]', "S_C"),  # a peak column
])
def test_observables_must_record_what_the_scenario_reads(scenario, observables, column,
                                                         tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text(f'scenario = "{scenario}"\nobservables = {observables}\n')
    out = tmp_path / "out"
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    name = {"fig2_single_atom": "short", "fig3_two_atom": "one_photon_ratio"}.get(
        scenario, "dx00_dy00")
    header = (out / f"traj_{name}.csv").read_text().splitlines()[1].split(",")
    assert column in header
    # config.txt records the list as set
    assert f"observables = {observables}\n" in (out / "config.txt").read_text()


def _toml(value) -> str:
    return "[" + ", ".join(map(repr, value)) + "]" if isinstance(value, tuple) else repr(value)


def _fixed_cases():
    """((text, error), id) for each key of each scenario's `fixed`, set off
    the value it takes when absent."""
    for scenario, spec in SCENARIOS.items():
        absent = parse_config(f'scenario = "{scenario}"\n')
        for key in spec.fixed:
            default = getattr(absent, key)
            value = ((1.0,) * absent.n_atoms if isinstance(default, tuple)
                     else default + 1 if isinstance(default, int) else 2.0 * default)
            yield ((f'scenario = "{scenario}"\n{key} = {_toml(value)}\n',
                    f"line 2: {key}: must be {_toml(default)} for {scenario}, got {_toml(value)}"),
                   f"{scenario}-{key}")


FIXED = list(_fixed_cases())


def _fig5(design, x, y=(0.0, 0.0)):
    return (f'scenario = "fig5_position_map"\ndesign = "{design}"\n'
            f"[sweep.delta_x_nm]\nmin = {x[0]!r}\nmax = {x[1]!r}\nsteps = 2\n"
            f"[sweep.delta_y_nm]\nmin = {y[0]!r}\nmax = {y[1]!r}\nsteps = 2\n")


@pytest.mark.parametrize("text, error", [
    # atom 2 sits at x = 262 nm + delta_x on a grid that ends at x = +-1600 nm
    (_fig5("D1", (0.0, 2000.0)), "line 5: sweep.delta_x_nm.max: "),
    (_fig5("D3", (-2000.0, 0.0)), "line 4: sweep.delta_x_nm.min: "),
    (_fig5("D3", (0.0, 0.0), (0.0, 300.0)), "line 9: sweep.delta_y_nm.max: "),
    ('scenario = "n_atom_wstate"\ncouplings_ghz = [0.0, 0.0, 0.0]\n', "line 2: couplings_ghz: "),
    # fig3, fig4 and fig5 set atom 2 from alpha or the field map: no list
    ('scenario = "fig3_two_atom"\ncouplings_ghz = [0.0, 1.0]\n', "line 2: couplings_ghz: "),
    ('scenario = "fig3_two_atom"\ncouplings_ghz = [5.0, 3.5]\n',
     "line 2: couplings_ghz: must be [] for fig3_two_atom, got [5.0, 3.5]"),
    ('scenario = "fig4_correlations"\ncouplings_ghz = [5.0, 3.5]\n',
     "line 2: couplings_ghz: must be [] for fig4_correlations, got [5.0, 3.5]"),
    ('scenario = "fig5_position_map"\ncouplings_ghz = [5.0, 3.5]\n',
     "line 2: couplings_ghz: must be [] for fig5_position_map, got [5.0, 3.5]"),
    ('scenario = "n_atom_wstate"\nn_photons = 0\n', "line 2: n_photons: "),
    ('scenario = "fig2_single_atom"\nn_photons = 0\n', "line 2: n_photons: "),
    # the W state's summary expects the one-photon sqrt(N) g/pi: from two
    # photons N = 3 ran and wrote 29.67 GHz against an expected 31.18
    ('scenario = "n_atom_wstate"\nn_photons = 2\n',
     "line 2: n_photons: must be 1 for n_atom_wstate, got 2"),
    # the W state's enhancement is measured against atom 1's coupling
    ('scenario = "n_atom_wstate"\ncouplings_ghz = [0.0, 1.0, 0.0]\nt_end_ns = 2.0\n',
     "line 2: couplings_ghz: n_atom_wstate compares the collective exchange with atom 1's: "
     "atom 1 must couple"),
    # fig2 runs one atom at g_ghz, which a list only restates
    ('scenario = "fig2_single_atom"\ncouplings_ghz = [9.0]\n',
     "line 2: couplings_ghz: must be [] for fig2_single_atom, got [9.0]"),
    # a scenario that fixes its atom count ran that many and wrote the
    # config's count to config.txt
    ('scenario = "fig2_single_atom"\nn_atoms = 3\n',
     "line 2: n_atoms: must be 1 for fig2_single_atom, got 3"),
    ('scenario = "fig3_two_atom"\nn_atoms = 5\n',
     "line 2: n_atoms: must be 2 for fig3_two_atom, got 5"),
    # a value the file sets is checked, not replaced by the design's preset,
    # which ran fig5 at 9 GHz and fig2 at Q = 1.3e7
    ('scenario = "fig5_position_map"\ng_ghz = -1.0\n', "line 2: g_ghz: must be > 0, got -1.0"),
    ('scenario = "fig2_single_atom"\nq_factor = -3e6\n',
     "line 2: q_factor: must be > 0, got -3000000.0"),
    ('scenario = "fig3_two_atom"\ng_ghz = 0.0\n', "line 2: g_ghz: must be > 0, got 0.0"),
    ('scenario = "custom"\nobservables = "n_photon"\n',
     "line 2: observables: expected a [list] of strings, got 'n_photon'"),
    # the same columns under another config_sha256
    ('scenario = "custom"\nobservables = ["n_photon", "n_photon", "populations"]\n',
     "line 2: observables: repeated entries ['n_photon']"),
    # each of these ran and recorded in config.txt a value its run ignored
    ('scenario = "fig3_two_atom"\nn_photons = 7\n',
     "line 2: n_photons: must be 1 for fig3_two_atom, got 7"),
    ('scenario = "fig2_single_atom"\nalpha = 0.3\n',
     "line 2: alpha: must be 1.0 for fig2_single_atom, got 0.3"),
    ('scenario = "fig5_position_map"\nt_end_ns = 5.0\n',
     "line 2: t_end_ns: must be 0.3 for fig5_position_map, got 5.0"),
    ('scenario = "n_atom_wstate"\nresolution_nm = 0.1\n',
     "line 2: resolution_nm: must be 5.0 for n_atom_wstate, got 0.1"),
    # validated, then failed at run on a negative coupling of atom 2
    ('scenario = "fig4_correlations"\n[sweep.alpha]\nmin = -1.0\nmax = 1.0\nsteps = 3\n',
     "line 3: sweep.alpha.min: must be >= 0, got -1.0"),
    # an axis the scenario runs, as a value or an array of tables
    ('scenario = "fig4_correlations"\nsweep.alpha = 5\n',
     "line 2: sweep.alpha: expected a table of min, max and steps"),
    ('scenario = "fig4_correlations"\n[[sweep.alpha]]\nmin = 0.0\nmax = 1.0\nsteps = 3\n',
     "line 2: sweep.alpha: expected a table of min, max and steps"),
    # each of these also reported a second, false error
    ('scenario = 5\n', "line 1: scenario: expected a quoted string, got 5"),
    ('scenario = "fig5_position_map"\ndesign = "D9"\n',
     "line 2: design: unknown design 'D9'; valid: D1, D2, D3"),
] + [case for case, _ in FIXED], ids=[
    "fig5_x_max", "fig5_x_min", "fig5_y_max", "wstate_uncoupled", "fig3_uncoupled",
    "fig3_couplings", "fig4_couplings", "fig5_couplings", "wstate_no_photon",
    "fig2_no_photon", "wstate_two_photons", "wstate_atom_1_uncoupled", "fig2_couplings",
    "fig2_atom_count", "fig3_atom_count", "fig5_negative_g", "fig2_negative_q",
    "fig3_zero_g", "string_observables", "repeated_observables", "fig3_seven_photons",
    "fig2_alpha", "fig5_window", "wstate_resolution", "fig4_negative_alpha_sweep",
    "sweep_axis_value", "sweep_axis_array", "scenario_number", "fig5_unknown_design",
] + [name for _, name in FIXED])
def test_configs_that_cannot_run_fail_validate(text, error, tmp_path):
    errors = _errors(text)
    assert len(errors) == 1 and errors[0].startswith(error)
    path = tmp_path / "cfg.toml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_design_preset_fills_only_absent_keys():
    # an unknown design has no preset, and g_ghz and q_factor are unset
    assert _errors('scenario = "fig2_single_atom"\ndesign = "D9"\n') == [
        "line 2: design: unknown design 'D9'; valid: D1, D2, D3"]
    cfg = parse_config('scenario = "fig2_single_atom"\ndesign = "D2"\ng_ghz = 4.5\n')
    assert (cfg.g_ghz, cfg.q_factor) == (4.5, presets.DESIGNS["D2"].q_factor)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_plans_hold_coupling_tuples(scenario):
    # a plan is built from any config, even one that fails validation
    for n_atoms in (1, 0, -2):
        for design in ("D1", "D9"):
            cfg = ExperimentConfig(scenario=scenario, n_atoms=n_atoms, design=design)
            assert all(isinstance(run.couplings_ghz, tuple)
                       for run in SCENARIOS[scenario].plan(cfg).runs)
    cfg = parse_config(f'scenario = "{scenario}"\n')
    plan = SCENARIOS[scenario].plan(cfg)
    runs = list(plan.runs) + ([run for _, run in plan.sweep.points(cfg)] if plan.sweep else [])
    assert runs and all(isinstance(run.couplings_ghz, tuple) for run in runs)
    assert all(len(run.couplings_ghz) == run.n_atoms == cfg.n_atoms for run in runs)


def _validate_errors(text, tmp_path, capsys):
    """(exit code, error lines) of `cavitysim validate` on text."""
    path = tmp_path / "cfg.toml"
    path.write_text(text)
    code = main(["validate", str(path)])
    return code, [line.strip() for line in capsys.readouterr().err.splitlines()[1:]]


@pytest.mark.parametrize("text, error", [
    # W state at 1 GHz norm: one extremum per 0.25 ns
    ('scenario = "n_atom_wstate"\ncouplings_ghz = [1.0, 0.0, 0.0]\n',
     "line 2: couplings_ghz: the fit to run 'wstate' over t_end_ns = 0.12 ns failed: "
     "need >= 3 extrema to estimate a frequency, found 0"),
    # one atom at 9 GHz: one extremum per 27.8 ps
    ('scenario = "fig2_single_atom"\nt_end_ns = 0.05\n',
     "line 2: t_end_ns: the fit to run 'short' over t_end_ns = 0.05 ns failed: "
     "need >= 3 extrema to estimate a frequency, found 1"),
    ('scenario = "fig3_two_atom"\nt_end_ns = 0.02\n',
     "line 2: t_end_ns: the fit to run 'one_photon_equal' over t_end_ns = 0.02 ns failed: "
     "need >= 3 extrema to estimate a frequency, found 1"),
    # maxima at odd multiples of 27.8 ps: the ninth at 0.47 ns
    ('scenario = "fig2_single_atom"\nt_long_ns = 0.5\n',
     "line 2: t_long_ns: the fit to run 'long' over t_long_ns = 0.5 ns failed: "
     "need >= 10 oscillation maxima, found 9"),
    # damped: Omega = sqrt(97.95^2 - 94.25^2) = 26.7 rad/ns, not 97.95
    ('scenario = "n_atom_wstate"\nt_end_ns = 0.12\nkappa_mhz = 6e4\n',
     "line 2: t_end_ns: the fit to run 'wstate' over t_end_ns = 0.12 ns failed: "
     "need >= 3 extrema to estimate a frequency, found 2"),
    # overdamped, |kappa - gamma| / 4 above |g|: where the file sets neither
    # the window nor a coupling, the loss key it sets is named, larger rate first
    ('scenario = "n_atom_wstate"\nkappa_mhz = 1e7\n',
     "line 2: kappa_mhz: the fit to run 'wstate' over t_end_ns = 0.12 ns failed: "
     "need >= 3 extrema to estimate a frequency, found 1"),
    ('scenario = "fig3_two_atom"\nq_factor = 1e9\ngamma_mhz = 1e5\n',
     "line 3: gamma_mhz: the fit to run 'one_photon_equal' over t_end_ns = 0.3 ns failed: "
     "need >= 3 extrema to estimate a frequency, found 1"),
], ids=["wstate_weak", "fig2_short", "fig3_short", "fig2_long", "wstate_damped",
        "wstate_overdamped", "fig3_overdamped_by_gamma"])
def test_windows_too_short_for_the_summary_fit_fail_validate(text, error, tmp_path, capsys):
    parse_config(text)  # static checks pass: the fit itself fails
    assert _validate_errors(text, tmp_path, capsys) == (1, [error])
    assert main(["run", str(tmp_path / "cfg.toml"), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {error}"]
    assert not (tmp_path / "out").exists()
    # the envelope fit is made, and the exchange damped, only with loss
    if "t_long_ns" in text or "_mhz" in text:
        assert _validate_errors(text + "lossless = true\n", tmp_path, capsys) == (0, [])


@pytest.mark.parametrize("text, key", [
    ('q_factor = 1e15\ngamma_mhz = 0.0\n', "line 2: q_factor"),
    ('kappa_mhz = 1e-9\ngamma_mhz = 0.0\n', "line 2: kappa_mhz"),
    ('kappa_mhz = 0.0\ngamma_mhz = 1e-6\n', "line 3: gamma_mhz"),
], ids=["q_factor", "kappa", "gamma"])
def test_loss_too_weak_for_the_envelope_fit_fails_validate(text, key, tmp_path, capsys):
    # envelope_lifetime rejects a decay time above 1e3 times its window, and
    # fig2's envelope decays over 2 / (kappa + gamma); the larger rate's key is named
    text = 'scenario = "fig2_single_atom"\n' + text
    code, errors = _validate_errors(text, tmp_path, capsys)
    assert code == 1 and len(errors) == 1
    assert errors[0].startswith(
        f"{key}: the fit to run 'long' over t_long_ns = 40 ns failed: envelope fit slope ")
    assert errors[0].endswith(" ns window does not describe a resolvable decay")
    assert _validate_errors(text + "lossless = true\n", tmp_path, capsys) == (0, [])


def test_envelope_fit_limit_is_the_window_times_1e3(tmp_path, capsys):
    # The fit's window runs from the first maximum of sin^2(g t), at pi / (2 g),
    # to the last before t_long_ns = 40 ns: 39.944 ns at 9 GHz, so the fit
    # takes 2 / kappa up to 3.9944e4 ns, kappa down to 7.9688e-3 MHz.
    text = 'scenario = "fig2_single_atom"\ngamma_mhz = 1e-9\nkappa_mhz = '
    code, errors = _validate_errors(text + "0.00796\n", tmp_path, capsys)
    assert code == 1 and errors[0].startswith("line 3: kappa_mhz: ")
    assert _validate_errors(text + "0.00797\n", tmp_path, capsys) == (0, [])


def test_fig5_sweep_may_reach_the_grid_edges(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text(_fig5("D1", (-1862.0, 1338.0), (-270.0, 270.0)))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0


# A small config of each scenario, as key -> TOML value, and its sweep
# tables; custom runs two atoms so that alpha moves one, and fig5 has loss
# so that the loss keys do.
BASES = {
    "fig2_single_atom": ({}, ""),
    "fig3_two_atom": ({}, ""),
    "fig4_correlations": ({}, "[sweep.alpha]\nmin = 0.0\nmax = 2.0\nsteps = 3\n"),
    "fig5_position_map": ({"lossless": "false"},
                          "[sweep.delta_x_nm]\nmin = 0.0\nmax = 20.0\nsteps = 2\n"
                          "[sweep.delta_y_nm]\nmin = 0.0\nmax = 20.0\nsteps = 2\n"),
    "n_atom_wstate": ({}, ""),
    "custom": ({"n_atoms": "2"}, ""),
}
# A value of each key other than every base's
OTHER = {
    "design": '"D3"', "n_atoms": "4", "n_photons": "2", "g_ghz": "8.0", "alpha": "0.5",
    "q_factor": "1e7", "kappa_mhz": "40.0", "gamma_mhz": "10.0", "lambda_nm": "800.0",
    "detuning_ghz": "1.0", "lossless": "true", "t_end_ns": "0.25", "dt_ns": "3e-4",
    "t_long_ns": "30.0", "dt_long_ns": "0.004", "resolution_nm": "2.5",
}
UNSCORED = ("scenario", "sweeps", "workers", "output_dir")  # accepted and ignored: free


def _config(scenario: str, keys: dict) -> str:
    lines = [f'scenario = "{scenario}"'] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n" + BASES[scenario][1]


@functools.cache
def _outputs(text: str):
    """run_plan's summary and each kept trajectory's times and columns."""
    kept, summary, _ = runner.run_plan(parse_config(text))
    return summary, {name: [traj.times] + [(c, traj.series(c)) for c in traj.column_order]
                     for name, traj in kept.items()}


def _same(a, b) -> bool:
    return a[0] == b[0] and a[1].keys() == b[1].keys() and all(
        len(a[1][n]) == len(b[1][n]) and np.array_equal(a[1][n][0], b[1][n][0])
        and all(x[0] == y[0] and np.array_equal(x[1], y[1])
                for x, y in zip(a[1][n][1:], b[1][n][1:]))
        for n in a[1])


@pytest.mark.parametrize("scenario, key", [
    (scenario, f.name) for scenario, spec in SCENARIOS.items() for f in fields(ExperimentConfig)
    if f.name not in spec.fixed + UNSCORED])
def test_every_key_a_scenario_does_not_fix_moves_its_outputs(scenario, key):
    # so no key is missing from a scenario's fixed set
    keys = BASES[scenario][0]
    base = parse_config(_config(scenario, keys))
    if key == "couplings_ghz":
        value = _toml(tuple(4.5 * (i + 1) for i in range(base.n_atoms)))
    elif key == "observables":  # all but n_photon, which no summary reads
        value = _toml(tuple(o for o in base.observables if o != "n_photon"))
    else:
        value = OTHER[key]
    assert not _same(_outputs(_config(scenario, keys)),
                     _outputs(_config(scenario, keys | {key: value})))
