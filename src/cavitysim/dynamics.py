"""Master-equation propagation and derived time-series quantities.

Every generator here is time-independent and undriven: H and each L^dag L
conserve the excitation number e (photons plus excited atoms), and each
jump lowers it by one.  A state that is block-diagonal in e therefore stays
so, on the basis states whose e is at most the largest one it starts with,
and integrate() propagates it on those alone (d' of the d basis states),
with generators that `model` builds on them and nowhere else: with no
collapse operators, rho <- U rho U^dag with U = expm(-i H dt) on d' x d';
otherwise vec(rho) <- P vec(rho) with P = expm(L dt) on the d'^2 x d'^2
Liouvillian.  A run starts from a ket of length d inside one excitation
sector, and the first state it propagates is that ket's d' x d' outer
product on the kept states, so no d x d array exists on a run's path
(snapshots, if asked for, are the one exception).  expm() is this
module's, in numpy: scaling and squaring with the [13/13] Pade
approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), one
function for both generators.  One propagator is built per distinct step
of the output grid, so a uniform grid costs one expm.  Trace is never
renormalized: every generator here preserves it, so a drift of more than
TRACE_TOL at any output time fails the run.

Propagation is a sequential loop, but observables are not evaluated per
step: the states are written into a chunk buffer of about CHUNK_BYTES,
shape (c, d', d'), and each full chunk is evaluated at once.  The block
structure makes each single-factor reduced state diagonal and each atom
pair's an X-state, so entropies and concurrence come from marginal
populations and one coherence per pair, with no eigensolver.  The trace
gate checks the whole chunk before anything is recorded and still names
the first offending time.  Snapshots are embedded back into d x d.

Time is in ns throughout; rates are angular (rad/ns).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import entanglement as ent
from . import fockspace as fs
from .fockspace import HilbertLayout
from .model import LindbladGenerator, build_hamiltonian, liouvillian_matrix

TRAJECTORY_SCHEMA = "cavitysim-trajectory-v1"

# The observables integrate() can track.
TRACKABLE = ("populations", "n_photon", "entropies", "concurrence")

# Largest |tr rho - 1| that integrate() accepts at any output time.
TRACE_TOL = 1e-9
# Size of the buffer of states that integrate() evaluates together.
CHUNK_BYTES = 2**20
# Rows that write_trajectory_csv converts to text together.
CSV_BLOCK_ROWS = 1024


def chunk_states(dim: int) -> int:
    """Number of d x d complex states that fit in CHUNK_BYTES (at least 1)."""
    return max(1, CHUNK_BYTES // (16 * dim * dim))


# Coefficients b_0 .. b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision unscaled (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: exp(a) = r(a / 2^s)^(2^s),
    r the [13/13] Pade approximant, s the fewest squarings that bring the
    1-norm of a / 2^s to at most theta_13."""
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    u, v = _pade13_parts(a / 2.0**s)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _pade13_parts(a: np.ndarray) -> tuple:
    """Odd and even parts u, v of the [13/13] Pade numerator at a, so that
    r(a) = (v - u)^-1 (v + u).  The powers of a are freed on return."""
    b = _PADE13
    diag = slice(None, None, a.shape[0] + 1)  # the diagonal of a flattened matrix
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u.flat[diag] += b[1]
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    v.flat[diag] += b[0]
    return a @ u, v


class TooFewExtremaError(ValueError):
    """Series has too few oscillation extrema for the requested fit."""


class NonDecayingEnvelopeError(ValueError):
    """Envelope fit did not produce a positive, finite decay time."""


class IntegrationError(RuntimeError):
    """Integration failed (non-finite state or tolerance violated)."""


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


def population_labels(layout: HilbertLayout) -> list:
    """CSV column names for bare-state populations, in basis-index order."""
    return [
        "pop_" + layout.basis_label(k).replace(",", "")
        for k in range(layout.dim)
    ]


def subsystem_letter(factor: int) -> str:
    """Subsystem naming: A = photon, B..= atoms 1..N."""
    return chr(ord("A") + factor)


def tracked_columns(layout: HilbertLayout, track) -> list:
    """Names of the columns integrate() records for `track`, in order:
    populations in basis-index order, n_photon, the entropy of each single
    factor, then the concurrence of each atom pair.  Projection columns
    follow them."""
    factors = range(layout.n_atoms + 1)
    return (
        (population_labels(layout) if "populations" in track else [])
        + (["n_photon"] if "n_photon" in track else [])
        + ([f"S_{subsystem_letter(p)}" for p in factors] if "entropies" in track else [])
        + [f"C_{subsystem_letter(i)}{subsystem_letter(j)}"
           for i, j in itertools.combinations(factors[1:], 2) if "concurrence" in track]
    )


def sector_norm_dim(layout: HilbertLayout, keep, n_exc: int) -> int:
    """Entropy normalization dimension for one partition block.

    Counted on the basis states with at most n_exc excitations: the number
    of distinct states their kept factors take, and likewise for the
    complement; the smaller of the two, floored at 2.  For a single photon
    shared with any number of atoms this gives 2, which makes the photon
    entropy reach 1 at maximal photon-atom entanglement even though the
    truncated photon factor is larger.
    """
    keep = tuple(keep)
    complement = tuple(p for p in range(layout.n_atoms + 1) if p not in keep)
    sector = np.flatnonzero(fs.excitation_number_diagonal(layout) <= n_exc)
    # Distinct values by bincount: np.unique would import numpy.ma (~15 ms)
    # on its first call in a process.
    return max(2, min(
        np.count_nonzero(np.bincount(fs.factor_index(layout, sector, side)))
        for side in (keep, complement)
    ))


def integrate(
    gen: LindbladGenerator,
    psi0: np.ndarray,
    times,
    snapshot_stride: int | None = None,
    track: tuple = ("populations", "n_photon"),
    projections: dict | None = None,
) -> Trajectory:
    """Propagate |psi0><psi0| exactly over an increasing time grid and
    record observables.

    Steps that agree to 12 digits of the grid's span share one propagator,
    built for their mean: a linspace grid, whose steps scatter by a few
    ulp, builds one.

    track may contain any of TRACKABLE (ValueError on any other entry).
    projections maps extra column names to kets whose population <v|rho|v>
    is recorded.  Entropies are computed per single factor (photon and each
    atom), normalized by sector_norm_dim at psi0's excitation number;
    concurrence is computed for every atom pair.  No trace renormalization
    is applied; the run raises IntegrationError if |tr rho - 1| exceeds
    TRACE_TOL at any output time, naming the first such time.

    psi0 is a ket of length d whose non-zero amplitudes lie in one
    excitation sector, as every basis state's do (ValueError otherwise,
    and if its squared norm is not 1 within 1e-9).  The run then
    propagates only the d' basis states with at most that many
    excitations; populations of the others are exactly 0.  States are
    evaluated a chunk of chunk_states(d') at a time; the chunk size changes
    neither the observables nor the snapshots, which are copied from each
    chunk at times[::snapshot_stride] into full d x d matrices.
    """
    unknown = [t for t in track if t not in TRACKABLE]
    if unknown:
        raise ValueError(
            f"track has unknown entries {unknown}; valid: {', '.join(TRACKABLE)}"
        )
    layout = gen.layout
    dim = layout.dim
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (dim,):
        raise ValueError(f"psi0 has shape {psi0.shape}, layout dimension is {dim}")
    exc = fs.excitation_number_diagonal(layout)
    sectors = exc[psi0 != 0]
    if np.any(sectors != sectors[:1]):
        raise ValueError(
            "psi0 spans several excitation sectors; integrate needs a state "
            "inside one excitation sector"
        )
    norm2 = float(np.vdot(psi0, psi0).real)
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"psi0 has squared norm {norm2!r}, not 1 within 1e-09")
    # Every state psi0 can reach lives on the basis states up to its
    # excitation number (no drive; H and each L^dag L conserve it, each jump
    # lowers it by one), so the propagation runs on those alone.
    n_exc = int(sectors[0])
    kept = np.flatnonzero(exc <= n_exc)
    d_sub = kept.size
    rho = np.outer(psi0[kept], psi0[kept].conj())

    n_out = times.size
    want_pops = "populations" in track
    want_nph = "n_photon" in track

    entropy_factors = list(range(layout.n_atoms + 1)) if "entropies" in track else []
    norm_dims = {p: sector_norm_dim(layout, (p,), n_exc) for p in entropy_factors}
    pairs = (
        tuple(itertools.combinations(range(1, layout.n_atoms + 1), 2))
        if "concurrence" in track else ()
    )

    projections = dict(projections or {})
    # Populations lead, in basis-index order; those not kept stay exactly 0.
    column_order = tracked_columns(layout, track) + list(projections)
    obs = {name: np.zeros(n_out) for name in column_order}

    lossy = bool(gen.collapse_channels)
    if n_out > 1:
        steps = np.diff(times)
        bins = np.round((steps - steps[0]) / (1e-12 * (times[-1] - times[0])))
        _, step_class = np.unique(bins, return_inverse=True)
        lengths = np.bincount(step_class, weights=steps) / np.bincount(step_class)
        # Without loss the d' x d' unitary suffices; with it, expm runs on
        # the d'^2 x d'^2 Liouvillian.
        generator = (
            liouvillian_matrix(gen, kept) if lossy
            else -1j * build_hamiltonian(layout, gen.params, kept)
        )
        props = [expm(generator * dt) for dt in lengths]
        props_dag = [u.conj().T for u in props]

    diag_idx = np.arange(d_sub) * (d_sub + 1)
    nph_diag = fs.photon_number_diagonal(layout)[kept].astype(float)
    kets = np.array(list(projections.values()), dtype=complex).reshape(-1, dim)[:, kept]

    # Every state stays block-diagonal in excitation number, so the reduced
    # state of one factor is diagonal, and that of an atom pair has only the
    # coherence rho[ge, eg] off the diagonal: both follow from marginal
    # populations, summed from the kept diagonal by 0/1 matrices, and the
    # pair's coherence from the elements |.. g_i .. e_j ..><.. e_i .. g_j ..|.
    # Those kept states pair up in basis order, since swapping the two atoms'
    # bits moves every basis index by the same offset.
    entropy_maps = [
        np.eye(layout.factor_dims()[p])[fs.factor_index(layout, kept, (p,))]
        for p in entropy_factors
    ]
    pair_maps = []
    for pair in pairs:
        index = fs.factor_index(layout, kept, pair)
        pair_maps.append((np.eye(4)[index], np.flatnonzero(index == 1),
                          np.flatnonzero(index == 2)))

    snap_idx = snapshots = None
    if snapshot_stride and snapshot_stride > 0:
        snap_idx = np.arange(0, n_out, snapshot_stride)
        snapshots = np.zeros((snap_idx.size, dim, dim), dtype=complex)

    def evaluate(chunk: np.ndarray, k0: int):
        """Gate and record the states at output indices k0 .. k0 + len(chunk)."""
        ks = slice(k0, k0 + len(chunk))
        diag = np.real(chunk.reshape(len(chunk), -1)[:, diag_idx])
        tr = diag.sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(tr) | (np.abs(tr - 1.0) > TRACE_TOL))
        if bad.size:
            k = k0 + bad[0]
            raise IntegrationError(
                f"trace deviation {tr[bad[0]] - 1.0:.3e} at t={times[k]:.6g} ns "
                f"exceeds tolerance {TRACE_TOL:g}"
            )
        if want_pops:
            for k, column in zip(kept, diag.T):
                obs[column_order[k]][ks] = column
        if want_nph:
            obs["n_photon"][ks] = diag @ nph_diag
        for p, m in zip(entropy_factors, entropy_maps):
            obs[f"S_{subsystem_letter(p)}"][ks] = ent.spectrum_entropy_stack(
                diag @ m, norm_dims[p]
            )
        for (i, j), (m, ge, eg) in zip(pairs, pair_maps):
            obs[f"C_{subsystem_letter(i)}{subsystem_letter(j)}"][ks] = (
                ent.x_state_concurrence_stack(
                    diag @ m,
                    chunk[:, ge, eg].sum(axis=1),
                    chunk[:, eg, ge].sum(axis=1),
                )
            )
        if kets.size:
            values = np.real(np.sum((kets.conj() @ chunk) * kets, axis=-1))
            for name, column in zip(projections, values.T):
                obs[name][ks] = column
        if snapshots is not None:
            inside = np.flatnonzero((snap_idx >= k0) & (snap_idx < ks.stop))
            snapshots[np.ix_(inside, kept, kept)] = chunk[snap_idx[inside] - k0]

    # A buffer of fixed size, not the whole (T, d, d) stack: memory must not
    # grow with the output grid.
    buf = np.empty((min(n_out, chunk_states(d_sub)), d_sub, d_sub), dtype=complex)
    k0 = 0
    for k in range(n_out):
        if k:
            c = step_class[k - 1]
            if lossy:
                rho = (props[c] @ rho.reshape(-1)).reshape(d_sub, d_sub)
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
    # lists of a long trajectory would cost megabytes of peak memory.  Each
    # block is freed before the next is built, so only one is ever held.
    for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
        columns = [a[start:start + CSV_BLOCK_ROWS].tolist() for a in arrays]
        for row in zip(*columns):
            fh.write(",".join(map(repr, row)) + "\n")
        del columns
