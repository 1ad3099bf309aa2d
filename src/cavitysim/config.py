"""Experiment configuration: a small line-oriented `key = value` format.

The format is deliberately strict: unknown keys, unknown sweep axes, bad
types and out-of-range values are hard errors carrying the line number, so
a typo in a physics parameter cannot silently run with a default.  So is a
run whose propagation would not fit in physical memory.  Every
omitted key is filled from the scenario's defaults at parse time, and
`canonical_text` emits the fully resolved form; parse(canonical_text(cfg))
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

import math
import os
from dataclasses import dataclass, field, replace

from . import presets
from .model import DISSIPATOR_FORMS, DISSIPATOR_TRACE_PRESERVING, FRAME_ROTATING, FRAMES

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
    n_max: int = 0              # 0 -> n_photons + 1 (one guard level)
    g_ghz: float = 0.0          # 0 -> design preset
    alpha: float = 1.0
    couplings_ghz: tuple = ()   # explicit per-atom list; overrides g/alpha
    q_factor: float = 0.0       # 0 -> design preset
    kappa_mhz: float = -1.0     # <0 -> derived from q_factor and lambda
    gamma_mhz: float = presets.GAMMA_RB87_D2_MHZ
    lambda_nm: float = presets.LAMBDA_NM
    detuning_ghz: float = 0.0
    frame: str = FRAME_ROTATING
    dissipator_form: str = DISSIPATOR_TRACE_PRESERVING
    lossless: bool = False
    t_end_ns: float = 0.3
    dt_ns: float = 2e-4
    t_long_ns: float = 40.0
    dt_long_ns: float = 0.005
    snapshot_stride: int = 0    # 0 -> store no snapshots
    observables: tuple = ("populations", "n_photon")
    resolution_nm: float = 5.0
    seed: int = 1234
    workers: int = 1
    output_dir: str = ""
    sweeps: tuple = ()          # of SweepAxis, sorted by name

    def sweep(self, name: str) -> SweepAxis | None:
        for ax in self.sweeps:
            if ax.name == name:
                return ax
        return None

    @property
    def resolved_n_max(self) -> int:
        return self.n_max if self.n_max > 0 else self.n_photons + 1

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


def _propagation_log2_bytes(cfg: ExperimentConfig) -> float:
    """log2 of the peak bytes of a run's largest propagation.

    d = (n_max + 1) 2^N is the largest Hilbert dimension the scenario
    propagates.  expm of a lossy run's d^2 x d^2 Liouvillian peaked at about
    8 such complex matrices; a lossless run at 13-14 d x d ones, counted as
    16.  A logarithm, so that an absurd atom count cannot overflow.
    """
    n_atoms, n_photons = {
        "fig2_single_atom": (1, cfg.n_photons),
        "fig3_two_atom": (2, 2),
        "fig4_correlations": (2, 2),
        "fig5_position_map": (2, 1),
    }.get(cfg.scenario, (cfg.n_atoms, cfg.n_photons))
    n_max = cfg.n_max if cfg.n_max > 0 else n_photons + 1
    log2_dim = math.log2(n_max + 1) + n_atoms
    if cfg.resolved_kappa_mhz > 0 or cfg.resolved_gamma_mhz > 0:
        return math.log2(8 * 16) + 4 * log2_dim
    return math.log2(16 * 16) + 2 * log2_dim


_BOOL_WORDS = {"true": True, "false": False}


def _parse_value(raw: str, line_no: int, errors: list):
    raw = raw.strip()
    if not raw:
        errors.append(f"line {line_no}: missing value")
        return None
    if raw.startswith('"'):
        if not (raw.endswith('"') and len(raw) >= 2):
            errors.append(f"line {line_no}: unterminated string {raw!r}")
            return None
        return raw[1:-1]
    if raw in _BOOL_WORDS:
        return _BOOL_WORDS[raw]
    if raw.startswith("["):
        if not raw.endswith("]"):
            errors.append(f"line {line_no}: unterminated list {raw!r}")
            return None
        body = raw[1:-1].strip()
        if not body:
            return ()
        items = []
        for part in body.split(","):
            part = part.strip()
            if part.startswith('"') and part.endswith('"') and len(part) >= 2:
                items.append(part[1:-1])
                continue
            try:
                items.append(float(part))
            except ValueError:
                errors.append(
                    f"line {line_no}: list item {part!r} is neither a number "
                    "nor a quoted string"
                )
                return None
        return tuple(items)
    try:
        if any(c in raw for c in ".eE") and not raw.lstrip("+-").isdigit():
            return float(raw)
        return int(raw)
    except ValueError:
        errors.append(f"line {line_no}: cannot parse value {raw!r}")
        return None


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


_INT_KEYS = {"n_atoms", "n_photons", "n_max", "snapshot_stride", "seed",
             "workers"}
_FLOAT_KEYS = {"g_ghz", "alpha", "q_factor", "kappa_mhz", "gamma_mhz",
               "lambda_nm", "detuning_ghz", "t_end_ns", "dt_ns", "t_long_ns",
               "dt_long_ns", "resolution_nm"}
_STR_KEYS = {"scenario", "design", "frame", "dissipator_form", "output_dir"}
_BOOL_KEYS = {"lossless"}
_LIST_KEYS = {"couplings_ghz", "observables"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _BOOL_KEYS | _LIST_KEYS


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing every problem."""
    errors: list = []
    scalars: dict = {}
    scalar_lines: dict = {}
    sweeps: dict = {}
    section = None  # None = top level, else sweep axis name

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {line_no}: malformed section header {line!r}")
                section = None
                continue
            name = line[1:-1].strip()
            if not name.startswith("sweep."):
                errors.append(
                    f"line {line_no}: unknown section {name!r} (only [sweep.<axis>])"
                )
                section = None
                continue
            axis = name[len("sweep."):]
            if axis not in SWEEP_AXES:
                errors.append(
                    f"line {line_no}: unknown sweep axis {axis!r}; "
                    f"valid axes: {', '.join(SWEEP_AXES)}"
                )
                section = None
                continue
            section = axis
            sweeps.setdefault(axis, {})
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected key = value, got {line!r}")
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        value = _parse_value(raw_val, line_no, errors)
        if value is None:
            continue
        if section is not None:
            if key not in ("min", "max", "steps"):
                errors.append(
                    f"line {line_no}: unknown sweep key {key!r} (min/max/steps)"
                )
                continue
            sweeps[section][key] = (value, line_no)
        else:
            if key not in _ALL_KEYS:
                errors.append(f"line {line_no}: unknown key {key!r}")
                continue
            if key in scalars:
                errors.append(f"line {line_no}: duplicate key {key!r}")
                continue
            scalars[key] = value
            scalar_lines[key] = line_no

    def type_error(key, expected):
        errors.append(
            f"line {scalar_lines[key]}: {key}: expected {expected}, "
            f"got {scalars[key]!r}"
        )

    # type checks / coercions
    for key in list(scalars):
        v = scalars[key]
        if key in _INT_KEYS:
            if isinstance(v, bool) or not isinstance(v, int):
                type_error(key, "an integer")
                scalars.pop(key)
        elif key in _FLOAT_KEYS:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                type_error(key, "a number")
                scalars.pop(key)
            else:
                scalars[key] = float(v)
        elif key in _STR_KEYS:
            if not isinstance(v, str):
                type_error(key, "a quoted string")
                scalars.pop(key)
        elif key in _BOOL_KEYS:
            if not isinstance(v, bool):
                type_error(key, "true or false")
                scalars.pop(key)
        elif key in _LIST_KEYS:
            if isinstance(v, str):
                scalars[key] = (v,)
            elif not isinstance(v, tuple):
                type_error(key, "a [list]")
                scalars.pop(key)

    scenario = scalars.get("scenario")
    if scenario is None:
        errors.append("line 0: missing required key 'scenario'")
    elif scenario not in SCENARIOS:
        errors.append(
            f"line {scalar_lines['scenario']}: scenario: unknown scenario "
            f"{scenario!r}; valid: {', '.join(SCENARIOS)}"
        )
        scenario = None
    if errors and scenario is None:
        raise ConfigError(errors)

    merged = dict(SCENARIO_DEFAULTS[scenario])
    merged.update({k: v for k, v in scalars.items() if k != "scenario"})

    if "observables" in merged:
        obs = tuple(str(o) for o in merged["observables"])
        bad = [o for o in obs if o not in OBSERVABLE_CHOICES]
        if bad:
            errors.append(
                f"line {scalar_lines.get('observables', 0)}: observables: "
                f"unknown entries {bad}; valid: {', '.join(OBSERVABLE_CHOICES)}"
            )
        merged["observables"] = obs
    if "couplings_ghz" in merged:
        merged["couplings_ghz"] = tuple(float(x) for x in merged["couplings_ghz"])

    cfg = ExperimentConfig(scenario=scenario, **merged)

    # design / preset resolution
    if cfg.design not in presets.DESIGNS:
        errors.append(
            f"line {scalar_lines.get('design', 0)}: design: unknown design "
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
    for axis, fields_seen in sweeps.items():
        missing = [k for k in ("min", "max", "steps") if k not in fields_seen]
        if missing:
            errors.append(f"sweep.{axis}: missing {', '.join(missing)}")
            continue
        mn, ln_mn = fields_seen["min"]
        mx, ln_mx = fields_seen["max"]
        st, ln_st = fields_seen["steps"]
        if isinstance(st, bool) or not isinstance(st, int):
            errors.append(f"line {ln_st}: sweep.{axis}.steps: expected an integer")
            continue
        if st < 1:
            errors.append(f"line {ln_st}: sweep.{axis}.steps: must be >= 1, got {st}")
            continue
        try:
            mn, mx = float(mn), float(mx)
        except (TypeError, ValueError):
            errors.append(f"sweep.{axis}: min/max must be numbers")
            continue
        if mx < mn:
            errors.append(f"line {ln_mx}: sweep.{axis}.max: {mx} is below min {mn}")
            continue
        axes.append(SweepAxis(axis, mn, mx, st))
    if not axes:
        axes = list(default_sweeps(scenario, cfg.design))
    else:
        names = {ax.name for ax in axes}
        for ax in default_sweeps(scenario, cfg.design):
            if ax.name not in names:
                axes.append(ax)
    cfg = replace(cfg, sweeps=tuple(sorted(axes, key=lambda ax: ax.name)))

    # range validation (name the key)
    def check(cond, key, reason):
        if not cond:
            errors.append(f"line {scalar_lines.get(key, 0)}: {key}: {reason}")

    check(cfg.n_atoms >= 1, "n_atoms", f"must be >= 1, got {cfg.n_atoms}")
    check(cfg.n_photons >= 0, "n_photons", f"must be >= 0, got {cfg.n_photons}")
    check(cfg.n_max >= 0, "n_max", f"must be >= 0 (0 = auto), got {cfg.n_max}")
    if cfg.n_max > 0:
        check(cfg.n_max >= cfg.n_photons, "n_max",
              f"must retain the initial {cfg.n_photons} photons")
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
    check(cfg.frame in FRAMES, "frame", f"must be one of {FRAMES}")
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

    if not errors and hasattr(os, "sysconf"):
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        need = _propagation_log2_bytes(cfg)
        gb = 2.0**need / 1e9 if need < 1000 else math.inf
        check(need <= math.log2(memory), "n_atoms",
              f"propagation needs about {gb:.3g} GB at peak, more than the "
              f"{memory / 1e9:.3g} GB of physical memory")

    if errors:
        raise ConfigError(errors)
    return cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Fully resolved config as text; parse(canonical_text(cfg)) == cfg."""
    lines = []
    pairs = {
        "scenario": cfg.scenario, "design": cfg.design,
        "n_atoms": cfg.n_atoms, "n_photons": cfg.n_photons, "n_max": cfg.n_max,
        "g_ghz": cfg.g_ghz, "alpha": cfg.alpha,
        "couplings_ghz": cfg.couplings_ghz,
        "q_factor": cfg.q_factor, "kappa_mhz": cfg.kappa_mhz,
        "gamma_mhz": cfg.gamma_mhz, "lambda_nm": cfg.lambda_nm,
        "detuning_ghz": cfg.detuning_ghz, "frame": cfg.frame,
        "dissipator_form": cfg.dissipator_form, "lossless": cfg.lossless,
        "t_end_ns": cfg.t_end_ns, "dt_ns": cfg.dt_ns,
        "t_long_ns": cfg.t_long_ns, "dt_long_ns": cfg.dt_long_ns,
        "snapshot_stride": cfg.snapshot_stride,
        "observables": cfg.observables, "resolution_nm": cfg.resolution_nm,
        "seed": cfg.seed, "workers": cfg.workers, "output_dir": cfg.output_dir,
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
