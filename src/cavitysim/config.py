"""Experiment configuration, read from a TOML file.

A config is TOML limited to top-level `key = value` pairs plus optional
`[sweep.<axis>]` tables, parsed with the stdlib `tomllib`.  On top of TOML
the checks are deliberately strict: unknown keys, sections, sweep axes and
sweep keys, bad types and out-of-range values are hard errors carrying the
line number, so a typo in a physics parameter cannot silently run with a
default.  So is a run whose propagation, or whose synthetic field map,
would not fit in physical memory.
All such problems are reported together; a TOML syntax error stops the
parse, so syntax errors are reported one at a time.  Every omitted key is
filled from the scenario's defaults at parse time, and `canonical_text`
emits the fully resolved form as valid TOML; parse(canonical_text(cfg))
round-trips to an equal config.

Example::

    scenario = "fig3_two_atom"
    design = "D1"
    alpha = 0.7

    [sweep.delta_x_nm]
    min = 0.0
    max = 53.0
    steps = 9
"""

import json
import math
import os
import re
import tomllib
from dataclasses import dataclass, replace

from . import coupling, presets
from .model import DISSIPATOR_FORMS, DISSIPATOR_TRACE_PRESERVING

SCENARIOS = (
    "fig2_single_atom",
    "fig3_two_atom",
    "fig4_correlations",
    "fig5_position_map",
    "n_atom_wstate",
    "custom",
)

OBSERVABLE_CHOICES = ("populations", "n_photon", "entropies", "concurrence")
SWEEP_AXES = ("delta_x_nm", "delta_y_nm", "alpha")
SWEEP_KEYS = ("min", "max", "steps")


class ConfigError(ValueError):
    """One or more configuration problems; each entry carries its location."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    steps: int

    def values(self):
        import numpy as np

        if self.steps == 1:
            return np.array([self.min])
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    design: str = "D1"
    n_atoms: int = 1
    n_photons: int = 1
    n_max: int = 0              # 0 -> one guard level above the photons
    g_ghz: float = 0.0          # 0 -> design preset
    alpha: float = 1.0
    couplings_ghz: tuple = ()   # explicit per-atom list; overrides g/alpha
    q_factor: float = 0.0       # 0 -> design preset
    kappa_mhz: float = -1.0     # <0 -> derived from q_factor and lambda
    gamma_mhz: float = presets.GAMMA_RB87_D2_MHZ
    lambda_nm: float = presets.LAMBDA_NM
    detuning_ghz: float = 0.0
    dissipator_form: str = DISSIPATOR_TRACE_PRESERVING
    lossless: bool = False
    t_end_ns: float = 0.3
    dt_ns: float = 2e-4
    t_long_ns: float = 40.0
    dt_long_ns: float = 0.005
    snapshot_stride: int = 0    # 0 -> store no snapshots
    observables: tuple = ("populations", "n_photon")
    resolution_nm: float = 5.0
    workers: int = 1            # accepted and ignored
    output_dir: str = ""
    sweeps: tuple = ()          # of SweepAxis, sorted by name

    def sweep(self, name: str) -> SweepAxis | None:
        for ax in self.sweeps:
            if ax.name == name:
                return ax
        return None

    def n_max_for(self, n_photons: int) -> int:
        """Photon truncation of a run that starts with n_photons photons."""
        return self.n_max if self.n_max > 0 else n_photons + 1

    @property
    def resolved_n_max(self) -> int:
        return self.n_max_for(self.n_photons)

    @property
    def resolved_kappa_mhz(self) -> float:
        if self.lossless:
            return 0.0
        if self.kappa_mhz >= 0:
            return self.kappa_mhz
        return presets.kappa_ordinary_hz(self.q_factor, self.lambda_nm) / 1e6

    @property
    def resolved_gamma_mhz(self) -> float:
        return 0.0 if self.lossless else self.gamma_mhz

    def resolved_couplings_ghz(self) -> tuple:
        """Per-atom ordinary-GHz couplings: explicit list if given, else
        (g, alpha*g, g, g, ...) with the ratio applied to atom 2."""
        if self.couplings_ghz:
            return self.couplings_ghz
        g = self.g_ghz
        out = [g] * self.n_atoms
        if self.n_atoms >= 2:
            out[1] = self.alpha * g
        return tuple(out)


# Scenario-specific defaults applied before user keys are read.
SCENARIO_DEFAULTS = {
    "fig2_single_atom": dict(
        n_atoms=1, n_photons=1, t_end_ns=0.1, dt_ns=5e-5,
        t_long_ns=40.0, dt_long_ns=0.005,
    ),
    "fig3_two_atom": dict(
        n_atoms=2, n_photons=1, alpha=0.7, t_end_ns=0.3, dt_ns=2e-4,
    ),
    "fig4_correlations": dict(
        n_atoms=2, n_photons=1, alpha=0.7, t_end_ns=0.3, dt_ns=2e-4,
        observables=("populations", "n_photon", "entropies", "concurrence"),
    ),
    "fig5_position_map": dict(
        n_atoms=2, n_photons=1, lossless=True,
        observables=("populations", "n_photon", "entropies", "concurrence"),
    ),
    "n_atom_wstate": dict(
        n_atoms=3, n_photons=1, t_end_ns=0.12, dt_ns=1e-4,
    ),
    "custom": dict(),
}

# Default sweep axes where a scenario needs them and the config omits them.
def default_sweeps(scenario: str, design: str) -> tuple:
    if scenario == "fig5_position_map":
        dy_max = presets.TIP_GAP_NM if design == "D3" else presets.HOLE_RADIUS_NM
        return (
            SweepAxis("delta_x_nm", 0.0, presets.HOLE_RADIUS_NM, 9),
            SweepAxis("delta_y_nm", 0.0, dy_max, 9),
        )
    if scenario == "fig4_correlations":
        return (SweepAxis("alpha", 0.0, 2.0, 21),)
    return ()


# (atoms, largest photon number) of each scenario's largest propagation,
# where the scenario fixes them; None takes the config's value.  fig3 and
# fig4 always add two-photon runs.
_PROPAGATED = {
    "fig2_single_atom": (1, None),
    "fig3_two_atom": (2, 2),
    "fig4_correlations": (2, 2),
    "fig5_position_map": (2, 1),
}


def _propagated(cfg: ExperimentConfig) -> tuple:
    n_atoms, n_photons = _PROPAGATED.get(cfg.scenario, (cfg.n_atoms, None))
    return n_atoms, cfg.n_photons if n_photons is None else n_photons


def _propagation_log2_bytes(cfg: ExperimentConfig) -> float:
    """log2 of the peak bytes of a run's largest propagation.

    d = (n_max + 1) 2^N is the largest Hilbert dimension the scenario
    propagates.  expm of a lossy run's d^2 x d^2 Liouvillian peaked at about
    8 such complex matrices; a lossless run at 13-14 d x d ones, counted as
    16.  A logarithm, so that an absurd atom count cannot overflow.
    """
    n_atoms, n_photons = _propagated(cfg)
    log2_dim = math.log2(cfg.n_max_for(n_photons) + 1) + n_atoms
    if cfg.resolved_kappa_mhz > 0 or cfg.resolved_gamma_mhz > 0:
        return math.log2(8 * 16) + 4 * log2_dim
    return math.log2(16 * 16) + 2 * log2_dim


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the OS does not report it."""
    if not hasattr(os, "sysconf"):
        return None
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


_INT = (_is_int, "an integer")
_FLOAT = (_is_number, "a number")
_STR = (lambda v: isinstance(v, str), "a quoted string")

# key -> (type test, what the error says was expected)
_KEY_TYPES = {
    **dict.fromkeys(("n_atoms", "n_photons", "n_max", "snapshot_stride",
                     "workers"), _INT),
    **dict.fromkeys(("g_ghz", "alpha", "q_factor", "kappa_mhz", "gamma_mhz",
                     "lambda_nm", "detuning_ghz", "t_end_ns", "dt_ns",
                     "t_long_ns", "dt_long_ns", "resolution_nm"), _FLOAT),
    **dict.fromkeys(("scenario", "design", "dissipator_form", "output_dir"), _STR),
    "lossless": (lambda v: isinstance(v, bool), "true or false"),
    "couplings_ghz": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                      "a [list] of numbers"),
    "observables": (lambda v: isinstance(v, str) or _is_str_list(v),
                    "a [list] of strings"),
}

# A table header `[a.b]` or `[[a.b]]` (group 1) or the key of a `key = value`
# line (group 2).
_HEADER_OR_KEY = re.compile(r'\s*(?:\[\[?([^\[\]]+)\]|([\w."\s-]+?)\s*=)')


def _dotted(name: str) -> tuple:
    return tuple(part.strip().strip('"') for part in name.split("."))


def _key_lines(text: str) -> dict:
    """Line of each table header and key, by its dotted path, e.g.
    ("g_ghz",) or ("sweep", "alpha", "steps").  Only locates errors."""
    lines, table = {}, ()
    for line_no, line in enumerate(text.splitlines(), start=1):
        m = _HEADER_OR_KEY.match(line)
        if m and m[1] is not None:
            table = _dotted(m[1])
            lines.setdefault(table, line_no)
        elif m:
            lines.setdefault(table + _dotted(m[2]), line_no)
    return lines


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing every problem."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        m = re.search(r"at line (\d+)", str(exc))
        line_no = m[1] if m else len(text.splitlines())
        raise ConfigError([f"line {line_no}: {exc}"]) from None
    lines = _key_lines(text)
    errors: list = []

    def at(*path):
        return f"line {lines.get(path, 0)}"

    scalars: dict = {}
    sweeps: dict = {}
    for key, value in doc.items():
        if key == "sweep" and isinstance(value, dict):
            for axis, fields in value.items():
                if axis not in SWEEP_AXES or not isinstance(fields, dict):
                    errors.append(
                        f"{at('sweep', axis)}: unknown sweep axis {axis!r}; "
                        f"valid axes: {', '.join(SWEEP_AXES)}"
                    )
                    continue
                for k in [k for k in fields if k not in SWEEP_KEYS]:
                    errors.append(
                        f"{at('sweep', axis, k)}: unknown sweep key {k!r} (min/max/steps)"
                    )
                sweeps[axis] = fields
        elif isinstance(value, dict):
            errors.append(f"{at(key)}: unknown section {key!r} (only [sweep.<axis>])")
        elif key not in _KEY_TYPES:
            errors.append(f"{at(key)}: unknown key {key!r}")
        elif not _KEY_TYPES[key][0](value):
            errors.append(f"{at(key)}: {key}: expected {_KEY_TYPES[key][1]}, got {value!r}")
        elif _KEY_TYPES[key] is _FLOAT:
            scalars[key] = float(value)
        elif key == "couplings_ghz":
            scalars[key] = tuple(float(g) for g in value)
        elif key == "observables":
            scalars[key] = (value,) if isinstance(value, str) else tuple(value)
        else:
            scalars[key] = value

    scenario = scalars.get("scenario")
    if scenario is None:
        errors.append("line 0: missing required key 'scenario'")
    elif scenario not in SCENARIOS:
        errors.append(
            f"{at('scenario')}: scenario: unknown scenario "
            f"{scenario!r}; valid: {', '.join(SCENARIOS)}"
        )
        scenario = None
    if errors and scenario is None:
        raise ConfigError(errors)

    merged = dict(SCENARIO_DEFAULTS[scenario])
    merged.update({k: v for k, v in scalars.items() if k != "scenario"})
    cfg = ExperimentConfig(scenario=scenario, **merged)

    bad = [o for o in cfg.observables if o not in OBSERVABLE_CHOICES]
    if bad:
        errors.append(
            f"{at('observables')}: observables: unknown entries {bad}; "
            f"valid: {', '.join(OBSERVABLE_CHOICES)}"
        )

    # design / preset resolution
    if cfg.design not in presets.DESIGNS:
        errors.append(
            f"{at('design')}: design: unknown design "
            f"{cfg.design!r}; valid: {', '.join(presets.DESIGNS)}"
        )
    else:
        d = presets.DESIGNS[cfg.design]
        if cfg.g_ghz <= 0:
            cfg = replace(cfg, g_ghz=d.g_ghz)
        if cfg.q_factor <= 0:
            cfg = replace(cfg, q_factor=d.q_factor)

    # sweep assembly
    axes = []
    for axis, fields in sweeps.items():
        missing = [k for k in SWEEP_KEYS if k not in fields]
        if missing:
            errors.append(f"{at('sweep', axis)}: sweep.{axis}: missing {', '.join(missing)}")
            continue
        mn, mx, st = (fields[k] for k in SWEEP_KEYS)
        if not _is_int(st):
            errors.append(f"{at('sweep', axis, 'steps')}: sweep.{axis}.steps: "
                          "expected an integer")
            continue
        if st < 1:
            errors.append(f"{at('sweep', axis, 'steps')}: sweep.{axis}.steps: "
                          f"must be >= 1, got {st}")
            continue
        if not (_is_number(mn) and _is_number(mx)):
            errors.append(f"{at('sweep', axis)}: sweep.{axis}: min/max must be numbers")
            continue
        mn, mx = float(mn), float(mx)
        if mx < mn:
            errors.append(f"{at('sweep', axis, 'max')}: sweep.{axis}.max: "
                          f"{mx} is below min {mn}")
            continue
        axes.append(SweepAxis(axis, mn, mx, st))
    names = {ax.name for ax in axes}
    axes += [ax for ax in default_sweeps(scenario, cfg.design) if ax.name not in names]
    cfg = replace(cfg, sweeps=tuple(sorted(axes, key=lambda ax: ax.name)))

    # range validation (name the key)
    def check(cond, key, reason):
        if not cond:
            errors.append(f"{at(key)}: {key}: {reason}")

    _, n_photons = _propagated(cfg)
    check(cfg.n_atoms >= 1, "n_atoms", f"must be >= 1, got {cfg.n_atoms}")
    check(cfg.n_photons >= 0, "n_photons", f"must be >= 0, got {cfg.n_photons}")
    check(cfg.n_max >= 0, "n_max", f"must be >= 0 (0 = auto), got {cfg.n_max}")
    if cfg.n_max > 0:
        check(cfg.n_max >= n_photons, "n_max",
              f"must retain the {n_photons} photons that {scenario} "
              f"propagates, got {cfg.n_max}")
    check(cfg.g_ghz > 0, "g_ghz", f"must be > 0, got {cfg.g_ghz}")
    check(cfg.alpha >= 0, "alpha", f"must be >= 0, got {cfg.alpha}")
    if cfg.couplings_ghz:
        check(len(cfg.couplings_ghz) == cfg.n_atoms, "couplings_ghz",
              f"length {len(cfg.couplings_ghz)} != n_atoms {cfg.n_atoms}")
        check(all(g >= 0 for g in cfg.couplings_ghz), "couplings_ghz",
              "entries must be >= 0")
    check(cfg.q_factor > 0, "q_factor", f"must be > 0, got {cfg.q_factor}")
    if cfg.kappa_mhz < 0 and "kappa_mhz" in scalars:
        check(False, "kappa_mhz", f"must be >= 0, got {cfg.kappa_mhz}")
    check(cfg.gamma_mhz >= 0, "gamma_mhz", f"must be >= 0, got {cfg.gamma_mhz}")
    check(cfg.lambda_nm > 0, "lambda_nm", f"must be > 0, got {cfg.lambda_nm}")
    check(cfg.dissipator_form in DISSIPATOR_FORMS, "dissipator_form",
          f"must be one of {DISSIPATOR_FORMS}")
    check(cfg.t_end_ns > 0, "t_end_ns", f"must be > 0, got {cfg.t_end_ns}")
    check(cfg.dt_ns > 0, "dt_ns", f"must be > 0, got {cfg.dt_ns}")
    check(cfg.t_long_ns > 0, "t_long_ns", f"must be > 0, got {cfg.t_long_ns}")
    check(cfg.dt_long_ns > 0, "dt_long_ns", f"must be > 0, got {cfg.dt_long_ns}")
    check(cfg.snapshot_stride >= 0, "snapshot_stride",
          f"must be >= 0, got {cfg.snapshot_stride}")
    check(0.5 <= cfg.resolution_nm <= 5.0, "resolution_nm",
          f"must be in [0.5, 5], got {cfg.resolution_nm}")
    check(cfg.workers >= 1, "workers", f"must be >= 1, got {cfg.workers}")
    if cfg.scenario == "fig5_position_map":
        check(cfg.design in ("D1", "D3"), "design",
              "fig5_position_map needs a synthetic map (designs D1 or D3)")

    memory = _physical_memory()
    if not errors and memory:
        need = _propagation_log2_bytes(cfg)
        gb = 2.0**need / 1e9 if need < 1000 else math.inf
        check(need <= math.log2(memory), "n_atoms",
              f"propagation needs about {gb:.3g} GB at peak, more than the "
              f"{memory / 1e9:.3g} GB of physical memory")
        if cfg.scenario == "fig5_position_map":
            map_bytes = coupling.synth_peak_bytes(cfg.resolution_nm)
            check(map_bytes <= memory, "resolution_nm",
                  f"the synthetic field map needs about {map_bytes / 1e9:.3g} GB "
                  f"at peak, more than the {memory / 1e9:.3g} GB of physical memory")

    if errors:
        raise ConfigError(errors)
    return cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        # json escapes quotes, backslashes and control characters the way a
        # TOML basic string does, except DEL
        return json.dumps(v, ensure_ascii=False).replace("\x7f", "\\u007f")
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Fully resolved config as TOML; parse(canonical_text(cfg)) == cfg."""
    lines = []
    pairs = {
        "scenario": cfg.scenario, "design": cfg.design,
        "n_atoms": cfg.n_atoms, "n_photons": cfg.n_photons, "n_max": cfg.n_max,
        "g_ghz": cfg.g_ghz, "alpha": cfg.alpha,
        "couplings_ghz": cfg.couplings_ghz,
        "q_factor": cfg.q_factor, "kappa_mhz": cfg.kappa_mhz,
        "gamma_mhz": cfg.gamma_mhz, "lambda_nm": cfg.lambda_nm,
        "detuning_ghz": cfg.detuning_ghz,
        "dissipator_form": cfg.dissipator_form, "lossless": cfg.lossless,
        "t_end_ns": cfg.t_end_ns, "dt_ns": cfg.dt_ns,
        "t_long_ns": cfg.t_long_ns, "dt_long_ns": cfg.dt_long_ns,
        "snapshot_stride": cfg.snapshot_stride,
        "observables": cfg.observables, "resolution_nm": cfg.resolution_nm,
        "workers": cfg.workers, "output_dir": cfg.output_dir,
    }
    for key in sorted(pairs):
        if key == "couplings_ghz" and not pairs[key]:
            continue
        if key == "kappa_mhz" and cfg.kappa_mhz < 0:
            continue  # sentinel for "derive from q_factor"
        lines.append(f"{key} = {_format_value(pairs[key])}")
    for ax in cfg.sweeps:
        lines.append("")
        lines.append(f"[sweep.{ax.name}]")
        lines.append(f"min = {_format_value(ax.min)}")
        lines.append(f"max = {_format_value(ax.max)}")
        lines.append(f"steps = {ax.steps}")
    return "\n".join(lines) + "\n"
