"""Master-equation propagation and derived time-series quantities.

Every generator here is time-independent, so the state at the next output
time is one exact product with a propagator for that output step: with no
collapse operators, rho <- U rho U^dag with U = expm(-i H dt) on the d x d
Hamiltonian; otherwise vec(rho) <- P vec(rho) with P = expm(L dt) on the
d^2 x d^2 Liouvillian (scipy's expm, Al-Mohy & Higham 2009).  One
propagator is built per distinct step of the output grid, so a uniform
grid costs one expm.  Trace is never renormalized: trace drift is a
quality metric and the run fails if it exceeds `trace_tol`.

Propagation is a sequential loop, but observables are not evaluated per
step: the states are written into a chunk buffer of about CHUNK_BYTES,
shape (c, d, d), and each full chunk is evaluated at once (the stacked
diagnostics of `entanglement`).  The trace gate checks the whole chunk
before anything is recorded and still names the first offending time.

Time is in ns throughout; rates are angular (rad/ns).
"""

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import entanglement as ent
from . import fockspace as fs
from .fockspace import HilbertLayout
from .model import LindbladGenerator, liouvillian_matrix

TRAJECTORY_SCHEMA = "cavitysim-trajectory-v1"

# Size of the buffer of states that integrate() evaluates together.
CHUNK_BYTES = 2**20
# Rows that write_trajectory_csv converts to text together.
CSV_BLOCK_ROWS = 1024


def chunk_states(dim: int) -> int:
    """Number of d x d complex states that fit in CHUNK_BYTES (at least 1)."""
    return max(1, CHUNK_BYTES // (16 * dim * dim))


class TooFewExtremaError(ValueError):
    """Series has too few oscillation extrema for the requested fit."""


class NonDecayingEnvelopeError(ValueError):
    """Envelope fit did not produce a positive, finite decay time."""


class IntegrationError(RuntimeError):
    """Integration failed (non-finite state or tolerance violated)."""


def validate_density_matrix(
    rho: np.ndarray,
    trace_tol: float = 1e-9,
    herm_tol: float = 1e-10,
    positivity_tol: float = 1e-8,
):
    """Raise if rho is not a normalized Hermitian PSD matrix within tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} deviates from 1 by more than {trace_tol}")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > herm_tol:
        raise ValueError(f"hermiticity deviation {herm_dev} exceeds {herm_tol}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -positivity_tol:
        raise ValueError(f"minimum eigenvalue {min_eig} below -{positivity_tol}")


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


@dataclass
class Trajectory:
    """Time series of integrated states and derived observables.

    observables maps column name -> real array over `times`; snapshots, when
    stored, sit at times[snapshot_indices].
    """

    layout: HilbertLayout
    times: np.ndarray
    observables: dict
    snapshots: np.ndarray | None = None
    snapshot_indices: np.ndarray | None = None
    column_order: list = field(default_factory=list)

    def series(self, name: str) -> np.ndarray:
        if name not in self.observables:
            raise KeyError(
                f"no observable {name!r}; available: {sorted(self.observables)}"
            )
        return self.observables[name]

    def snapshot_at(self, index: int) -> np.ndarray:
        if self.snapshots is None:
            raise ValueError("trajectory stored no snapshots")
        return self.snapshots[index]


def population_labels(layout: HilbertLayout) -> list:
    """CSV column names for bare-state populations, in basis-index order."""
    return [
        "pop_" + layout.basis_label(k).replace(",", "")
        for k in range(layout.dim)
    ]


def subsystem_letter(factor: int) -> str:
    """Subsystem naming: A = photon, B..= atoms 1..N."""
    return chr(ord("A") + factor)


def sector_effective_dim(layout: HilbertLayout, factor_positions, n_exc: int) -> int:
    """Number of subsystem basis states reachable with at most n_exc excitations."""
    positions = tuple(factor_positions)
    dim = 1
    if 0 in positions:
        dim *= min(layout.n_max, n_exc) + 1
        n_atoms = len(positions) - 1
    else:
        n_atoms = len(positions)
    atom_states = sum(
        math.comb(n_atoms, j) for j in range(0, min(n_atoms, n_exc) + 1)
    )
    return dim * atom_states


def sector_norm_dim(layout: HilbertLayout, keep, n_exc: int) -> int:
    """Entropy normalization dimension for one partition block.

    min(effective dim of kept factors, effective dim of the complement),
    restricted to the excitation-preserved sector, floored at 2.  For a
    single photon shared with any number of atoms this gives 2, which makes
    the photon entropy reach 1 at maximal photon-atom entanglement even
    though the truncated photon factor is larger.
    """
    keep = tuple(keep)
    complement = tuple(
        p for p in range(layout.n_atoms + 1) if p not in keep
    )
    return max(
        2,
        min(
            sector_effective_dim(layout, keep, n_exc),
            sector_effective_dim(layout, complement, n_exc),
        ),
    )


def integrate(
    gen: LindbladGenerator,
    rho0: np.ndarray,
    times,
    snapshot_stride: int | None = 1,
    track: tuple = ("populations", "n_photon"),
    projections: dict | None = None,
    concurrence_pairs: tuple | None = None,
    entropy_norm_dims: dict | None = None,
    trace_tol: float = 1e-9,
) -> Trajectory:
    """Propagate rho0 exactly over an increasing time grid and record observables.

    Steps that agree to 12 digits of the grid's span share one propagator,
    built for their mean: a linspace grid, whose steps scatter by a few
    ulp, builds one.

    track may contain "populations", "n_photon", "entropies", "concurrence".
    projections maps extra column names to kets whose population <v|rho|v>
    is recorded.  Entropies are computed per single factor (photon and each
    atom) with sector normalization unless entropy_norm_dims overrides the
    per-letter values; concurrence is computed for the atom pairs given (all
    pairs by default).  No trace renormalization is applied; the run raises
    IntegrationError if |tr rho - 1| exceeds trace_tol at any output time,
    naming the first such time.

    States are evaluated a chunk of chunk_states(d) at a time; the chunk
    size changes neither the observables nor the snapshots, which are
    copied from each chunk at times[::snapshot_stride].
    """
    layout = gen.layout
    dim = layout.dim
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0)
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 has shape {rho0.shape}, layout dimension is {dim}")

    n_out = times.size
    labels = population_labels(layout)
    want_pops = "populations" in track
    want_nph = "n_photon" in track

    n_exc = int(round(float(fs.excitation_number_diagonal(layout) @ np.real(np.diag(rho0)))))
    entropy_factors = list(range(layout.n_atoms + 1)) if "entropies" in track else []
    norm_dims = {}
    for p in entropy_factors:
        letter = subsystem_letter(p)
        if entropy_norm_dims and letter in entropy_norm_dims:
            norm_dims[p] = entropy_norm_dims[letter]
        else:
            norm_dims[p] = sector_norm_dim(layout, (p,), n_exc)

    if "concurrence" not in track:
        pairs = ()
    elif concurrence_pairs is None:
        pairs = tuple(itertools.combinations(range(1, layout.n_atoms + 1), 2))
    else:
        pairs = tuple(concurrence_pairs)

    projections = dict(projections or {})
    column_order = (
        (labels if want_pops else [])
        + (["n_photon"] if want_nph else [])
        + [f"S_{subsystem_letter(p)}" for p in entropy_factors]
        + [f"C_{subsystem_letter(i)}{subsystem_letter(j)}" for i, j in pairs]
        + list(projections)
    )
    obs = {name: np.empty(n_out) for name in column_order}

    lossy = bool(gen.collapse_ops)
    if n_out > 1:
        steps = np.diff(times)
        bins = np.round((steps - steps[0]) / (1e-12 * (times[-1] - times[0])))
        _, step_class = np.unique(bins, return_inverse=True)
        lengths = np.bincount(step_class, weights=steps) / np.bincount(step_class)
        # Without loss the d x d unitary suffices; expm of the d^2 x d^2
        # Liouvillian takes seconds already at N = 4.
        generator = liouvillian_matrix(gen) if lossy else -1j * gen.hamiltonian
        props = [expm(generator * dt) for dt in lengths]
        props_dag = [u.conj().T for u in props]

    diag_idx = np.arange(dim) * (dim + 1)
    nph_diag = fs.photon_number_diagonal(layout).astype(float)
    kets = np.array(list(projections.values()), dtype=complex).reshape(-1, dim)

    snap_idx = snapshots = None
    if snapshot_stride and snapshot_stride > 0:
        snap_idx = np.arange(0, n_out, snapshot_stride)
        snapshots = np.empty((snap_idx.size, dim, dim), dtype=complex)

    def evaluate(chunk: np.ndarray, k0: int):
        """Gate and record the states at output indices k0 .. k0 + len(chunk)."""
        ks = slice(k0, k0 + len(chunk))
        diag = np.real(chunk.reshape(len(chunk), -1)[:, diag_idx])
        tr = diag.sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(tr) | (np.abs(tr - 1.0) > trace_tol))
        if bad.size:
            k = k0 + bad[0]
            raise IntegrationError(
                f"trace deviation {tr[bad[0]] - 1.0:.3e} at t={times[k]:.6g} ns "
                f"exceeds tolerance {trace_tol:g}"
            )
        if want_pops:
            for name, column in zip(labels, diag.T):
                obs[name][ks] = column
        if want_nph:
            obs["n_photon"][ks] = diag @ nph_diag
        for p in entropy_factors:
            sub = ent.partial_trace_stack(chunk, layout, (p,))
            obs[f"S_{subsystem_letter(p)}"][ks] = ent.entropy_normalized_stack(
                sub, norm_dims[p]
            )
        for i, j in pairs:
            sub = ent.partial_trace_stack(chunk, layout, (i, j))
            obs[f"C_{subsystem_letter(i)}{subsystem_letter(j)}"][ks] = (
                ent.concurrence_stack(sub)
            )
        if kets.size:
            values = np.real(np.sum((kets.conj() @ chunk) * kets, axis=-1))
            for name, column in zip(projections, values.T):
                obs[name][ks] = column
        if snapshots is not None:
            inside = (snap_idx >= k0) & (snap_idx < ks.stop)
            snapshots[inside] = chunk[snap_idx[inside] - k0]

    # A buffer of fixed size, not the whole (T, d, d) stack: memory must not
    # grow with the output grid.
    buf = np.empty((min(n_out, chunk_states(dim)), dim, dim), dtype=complex)
    rho = rho0
    k0 = 0
    for k in range(n_out):
        if k:
            c = step_class[k - 1]
            if lossy:
                rho = (props[c] @ rho.reshape(-1)).reshape(dim, dim)
            else:
                rho = props[c] @ rho @ props_dag[c]
        buf[k - k0] = rho
        if k - k0 + 1 == len(buf) or k == n_out - 1:
            evaluate(buf[: k - k0 + 1], k0)
            k0 = k + 1

    return Trajectory(
        layout=layout,
        times=times,
        observables=obs,
        snapshots=snapshots,
        snapshot_indices=snap_idx,
        column_order=column_order,
    )


def bare_populations(traj: Trajectory) -> dict:
    """Bare-state population series keyed by pop_<n><pattern> labels."""
    out = {}
    for name in population_labels(traj.layout):
        if name in traj.observables:
            out[name] = traj.observables[name]
    if not out:
        raise ValueError("trajectory was integrated without population tracking")
    return out


def _refined_extrema(times: np.ndarray, series: np.ndarray):
    """Interior extrema with parabolic sub-sample refinement.

    Returns (t_ext, v_ext, is_max) arrays.
    """
    y = np.asarray(series, dtype=float)
    d = np.diff(y)
    t_ext, v_ext, kinds = [], [], []
    for i in range(1, len(y) - 1):
        left, right = d[i - 1], d[i]
        if left == 0.0:
            continue
        if left * right < 0:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            if denom == 0.0:
                offset = 0.0
            else:
                offset = 0.5 * (y[i - 1] - y[i + 1]) / denom
            dt = 0.5 * (times[i + 1] - times[i - 1])
            t_ext.append(times[i] + offset * dt)
            v_ext.append(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * offset)
            kinds.append(left > 0)
    return np.array(t_ext), np.array(v_ext), np.array(kinds, dtype=bool)


def count_extrema(series, min_prominence: float = 1e-9) -> int:
    """Count interior extrema where the value differs from a neighbour's by
    more than min_prominence.  The default only guards against float-level
    ripple: genuine but doubly-flat extrema (e.g. entropy maxima, where both
    the entropy derivative and the population rate vanish) sit just a few
    orders above it on realistic grids."""
    y = np.asarray(series, dtype=float)
    n = 0
    for i in range(1, len(y) - 1):
        if (y[i] - y[i - 1]) * (y[i] - y[i + 1]) > 0 and (
            abs(y[i] - y[i - 1]) > min_prominence
            or abs(y[i] - y[i + 1]) > min_prominence
        ):
            n += 1
    return n


def rabi_frequency(traj: Trajectory, observable: str) -> float:
    """Oscillation frequency of a population series, in cycles/ns (= GHz).

    Estimated from the mean spacing of consecutive extrema (half-periods);
    for a single resonant atom this equals g/pi with g angular.  Requires
    at least 3 extrema in the window.
    """
    t_ext, _, _ = _refined_extrema(traj.times, traj.series(observable))
    if t_ext.size < 3:
        raise TooFewExtremaError(
            f"need >= 3 extrema to estimate a frequency, found {t_ext.size}"
        )
    mean_half_period = float(np.mean(np.diff(t_ext)))
    return 1.0 / (2.0 * mean_half_period)


@dataclass(frozen=True)
class EnvelopeFit:
    tau_ns: float
    log_rms_residual: float
    n_maxima: int


def envelope_lifetime(
    traj: Trajectory, observable: str, min_maxima: int = 10
) -> EnvelopeFit:
    """Exponential decay time of the oscillation envelope.

    Fits the local-maximum amplitudes A_k at times t_k to A0 exp(-t/tau) by
    least squares on log A_k.  Raises NonDecayingEnvelopeError when the fit
    slope is non-negative (tau <= 0 or unbounded).
    """
    t_ext, v_ext, is_max = _refined_extrema(traj.times, traj.series(observable))
    t_max = t_ext[is_max]
    a_max = v_ext[is_max]
    keep = a_max > 0
    t_max, a_max = t_max[keep], a_max[keep]
    if t_max.size < min_maxima:
        raise TooFewExtremaError(
            f"need >= {min_maxima} oscillation maxima, found {t_max.size}"
        )
    slope, intercept = np.polyfit(t_max, np.log(a_max), 1)
    window = t_max[-1] - t_max[0]
    if slope >= 0 or not np.isfinite(slope) or -1.0 / slope > 1e3 * window:
        raise NonDecayingEnvelopeError(
            f"envelope fit slope {slope:.3e} over a {window:.3g} ns window "
            "does not describe a resolvable decay"
        )
    resid = np.log(a_max) - (slope * t_max + intercept)
    return EnvelopeFit(
        tau_ns=-1.0 / slope,
        log_rms_residual=float(np.sqrt(np.mean(resid**2))),
        n_maxima=int(t_max.size),
    )


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Emit `time_ns, <observables>` rows with a schema comment line.

    Column order is deterministic: populations in basis-index order, then
    n_photon, entropies S_A.., concurrence pairs, then any extra projection
    columns (in the order they were requested).
    """
    cols = traj.column_order
    fh.write(f"# schema: {TRAJECTORY_SCHEMA}\n")
    fh.write(",".join(["time_ns"] + cols) + "\n")
    arrays = [traj.times] + [traj.observables[c] for c in cols]
    # Columns become Python floats a block of rows at a time: whole-column
    # lists of a long trajectory would cost megabytes of peak memory.
    for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
        columns = [a[start:start + CSV_BLOCK_ROWS].tolist() for a in arrays]
        for row in zip(*columns):
            fh.write(",".join(map(repr, row)) + "\n")


def trajectory_csv_text(traj: Trajectory) -> str:
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    return buf.getvalue()
