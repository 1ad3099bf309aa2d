"""Master-equation propagation and derived time-series quantities.

Every generator here is time-independent and undriven: H and each L^dag L
conserve the excitation number e (photons plus excited atoms), and each
jump lowers it by one.  A run starts from a ket psi0 inside one sector
e = n, so its state is block-diagonal in e on the states with e <= n, and
the block of sector n stays rank one (Dalibard, Castin & Molmer, PRL 68,
580 (1992)): rho = psi psi^dag + x.  integrate() propagates

- the ket psi on the d_n states of sector n by K = expm(-i H_eff dt),
  H_eff = H - (i/2) sum rate L^dag L (its norm falls by what the jumps
  take); and
- with loss, the density block x on the d_l states below sector n, by
  x_k = E x_(k-1) + F vec(psi_(k-1) psi_(k-1)^dag).  E and F are the top
  row of expm([[L_low, J], [0, L_top]] dt) (Van Loan, IEEE TAC 23, 395
  (1978)): L_low the Liouvillian of the states below, L_top the action of
  H_eff on psi psi^dag, J = sum rate (L kron L*) the jumps out of sector n.
  From one photon every jump lands in |0, g..g>: x is its population p_G,
  and each step adds psi^dag G psi, G = int_0^dt K(s)^dag Gamma K(s) ds
  the jump Gramian (Gamma = sum rate L^dag L on sector n), from a block
  of 2 d_n rows (Van Loan 1978).

A lossless run has no x and builds no Liouvillian; a lossy one from two
photons builds it on the d_l states below sector n only, never on all d_l +
d_n, and one from one photon builds none.  Kets are dicts
{basis index: amplitude}, and nothing of length d is built on a run's path
but the names of the populations it tracks: a trajectory holds the arrays
of the d' propagated states' only, the others being exactly 0.  expm() is
this module's, in numpy: scaling and squaring with the [13/13] Pade
approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), one
function for every generator.  It is not replaced by an eigendecomposition:
H_eff is defective at an exceptional point (one atom at kappa - gamma =
4 g).  Trace is never renormalized and x is fed only by psi, through its
own propagator, so the trace check |psi|^2 + tr x = 1 is a real one: a
drift of more than TRACE_TOL at any output time fails the run.

Propagation has no Python loop per output step.  Every grid is uniform, so
a run builds its propagators once, takes its kets by doubling, rows[n:2n]
= rows[:n] K^n with K^n squared from the last, and x by a log-depth scan
over the feeds (p_G by a cumulative sum); the feeds' outer products (the
Gramian's forms) are built a chunk of output times at a time.  Observables
are then evaluated a chunk at a time, straight from (psi, x).  Nor is there
a loop per run of a sweep: integrate() takes a stack of runs that share a
layout, start ket and observables, such as a sweep's points, and every step
above (expm's solve and squarings included) works on a leading run axis,
each run with its own H, step, propagators and expm scaling, while the
layout's tables are built once.  A run in a stack is exactly what it would
be alone.  The block
structure makes each single-factor reduced state diagonal and each atom
pair's an X-state, so entropies and concurrence come from marginal
populations and one coherence per pair, with no eigensolver.  Two gates
check each chunk before anything of it is recorded and name the first
offending time: the trace, and the Hermiticity of x, max |x - x^dag| <=
HERM_TOL (psi psi^dag is Hermitian exactly, and no output shows x's
anti-Hermitian part: a projection reads Re <v|x|v>).

Time is in ns throughout; rates are angular (rad/ns).
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import entanglement as ent
from . import fockspace as fs
from .fockspace import HilbertLayout
from .model import (
    LindbladGenerator,
    build_hamiltonian,
    collapse_operators,
    decay_rates,
    liouvillian_matrix,
)

TRAJECTORY_SCHEMA = "cavitysim-trajectory-v1"

# The observables integrate() can track.
TRACKABLE = ("populations", "n_photon", "entropies", "concurrence")

# Largest |tr rho - 1| that integrate() accepts at any output time.
TRACE_TOL = 1e-9
# Largest max |x - x^dag| of the block below the start sector that
# integrate() accepts at any output time.
HERM_TOL = 1e-10
# Bytes of the feed's outer products and of the observable chunk's output
# times (chunk_states).
CHUNK_BYTES = 2**20
# Rows that write_trajectory_csv converts to text together.
CSV_BLOCK_ROWS = 1024
# Largest d of a run that tracks "populations", which lists and writes a CSV
# column per basis state (config rejects a larger d).  Every one- and
# two-photon layout up to N = 17 fits.
POPULATIONS_MAX_DIM = 2**19
MIN_PROMINENCE = 1e-9     # see count_extrema
MIN_ENVELOPE_MAXIMA = 10  # fewest oscillation maxima envelope_lifetime fits


def chunk_states(dim: int) -> int:
    """Number of output times whose dim x dim complex outer products fit in
    CHUNK_BYTES (at least 1), with dim the d_n states of the start sector."""
    return max(1, CHUNK_BYTES // (16 * dim * dim))


class Alloc(NamedTuple):
    """An array of integrate(), and how many of its size are alive at once
    at the call's peak (0: it is not built)."""

    shape: tuple
    dtype: type
    copies: int = 1

    @property
    def nbytes(self):  # of one copy
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize


def allocations(top: int, low: int, runs: int, outputs, channels: int = 0,
                projections: int = 0, track=(), photon_dim: int = 2) -> dict:
    """name -> Alloc of integrate() on a stack of `runs` runs at `outputs`
    times, from `top` states in the start sector and `low` below it (0
    without loss), with `channels` collapse channels, `projections` kets
    and `track` on photon_dim photon levels.  integrate() allocates psi, x
    and the Van Loan block, and steps its feed and its observable chunk, by
    these shapes; footprint() adds them up.  From one photon (low = 1) the
    block is the jump Gramian's, and no feed is built: the feed's steps
    take the Gramian's forms, fewer bytes than the chunk's arrays.  Only
    a Van Loan block (low > 1) reads the channels' dense L; elsewhere
    integrate() takes their decay rates alone."""
    chunk = chunk_states(top)
    states = min(runs * outputs, chunk)
    block = 2 * top if low == 1 else (low**2 + top**2) * bool(low)
    return dict(
        grid=Alloc((runs, outputs), float, 5),  # the caller's, a copy, two steps of its check
        psi=Alloc((runs, outputs, top), complex),
        x=Alloc((runs, outputs, low * low), complex, 2),  # and the scan's product
        # expm's working set: about ten matrices of the step's size at once
        ket_step=Alloc((runs, top, top), complex, 10),
        van_loan=Alloc((runs, block, block), complex, 10),
        # each channel's L on the kept states, only for the Van Loan block
        channels=Alloc((channels, top + low, top + low), complex, low > 1),
        # the feed's outer products: a few steps of every run at a time
        feed=Alloc((runs, min(max(1, chunk // runs), outputs), top * top), complex, low > 1),
        # per state of the observable chunk: x and its check, the populations,
        # the projections, a factor's spectrum, a pair's populations and checks
        lower=Alloc((states, low, low), complex, 4),
        pops=Alloc((states, top + low), float, 4),
        projections=Alloc((states, projections, 1 + low), complex, 2),
        entropy=Alloc((states, photon_dim), float, 6 * ("entropies" in track)),
        concurrence=Alloc((states, 4), float, 8 * ("concurrence" in track)),
    )


def footprint(layout: HilbertLayout, n_photons: int, lossy: bool, track,
              projections: int, outputs, runs: int, writers: int = 1) -> tuple:
    """Bytes of integrate() on a stack of `runs` runs (on `layout` from
    n_photons photons, loss if `lossy`, recording `track` and `projections`
    kets at `outputs` times), and of write_trajectory_csv on `writers`
    blocks of their rows at once, one in each process: (work, keep), the
    most either allocates beyond the trajectories and what each trajectory
    holds, each as (what grows with the states and their columns, what
    grows with the outputs alone).  A writer holds the text of a block of
    rows, one str per cell, of each held column, counted as if no two were
    equal.  A trajectory holds an array for the d' propagated populations
    only, so d grows nothing but the population columns' names, header and
    cells of constant text."""
    n_atoms = layout.n_atoms
    top, low = fs.sector_sizes(n_atoms, n_photons)
    low, n_out = low if lossy else 0, min(outputs, 2**64)
    arrays = {name: a.nbytes * a.copies for name, a in allocations(
        top, low, runs, n_out, (n_atoms + 1) * lossy, projections, track, layout.photon_dim
    ).items()}
    pops = layout.dim if "populations" in track else 0
    propagated = top + low if pops else 0
    other = projections + len(tracked_columns(layout, set(track) - {"populations"}))
    name = len(f"pop_{layout.n_max}") + n_atoms + 4  # the longest column name, and its ","
    objects = 192  # of an array of a column: the ndarray (112 B, a view too) and its dict entry
    per_output = arrays.pop("grid") + arrays.pop("psi") + arrays.pop("x")
    # beside the channels, one at a time: expm's working set of the ket step,
    # then of the block, the feed, and the observable chunk
    chunk = sum(arrays.pop(n) for n in ("lower", "pops", "projections", "entropy", "concurrence"))
    steps = arrays.pop("channels") + max(chunk, *arrays.values())
    # each held column's series view; the list of the population names
    propagate = steps + (propagated + other) * objects + 8 * pops
    write = (
        # each held column's CSV name, piece and bytes key; one block's text
        # of the time and each held column: per row a str of up to 24
        # characters (73 B), its list slot and 8 B of the block's bytes key,
        # and per column the list, the key, its dict entry and its cell in a
        # row's text; and the Python floats (24 B and a slot) of the column
        # being converted
        (propagated + other) * (48 + 2 * name)
        + (1 + propagated + other) * (96 * min(n_out, CSV_BLOCK_ROWS) + 384)
        + 32 * min(n_out, CSV_BLOCK_ROWS)
        # per population column: its header text, cell and token slots and
        # "0.0," in a row's text
        + pops * (name + 24)
    )
    # the call's small arrays and objects, and the file buffer (30 KiB
    # measured); integrate frees its arrays, per_output's too, before the
    # writers run
    work = 2**16 + max(propagate, writers * write - per_output)
    column = 8 * n_out + 2 * objects  # its floats, array and view
    return ((work, per_output),
            # each population's name (a str of 49 B and its characters) and
            # column_order slot
            (pops * (57 + name) + propagated * column, (1 + other) * column))


# Coefficients b_0 .. b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision unscaled (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: exp(a) = r(a / 2^s)^(2^s),
    r the [13/13] Pade approximant, s the fewest squarings that bring the
    1-norm of a / 2^s to at most theta_13.  a may be a stack (..., n, n)
    of matrices, each scaled and squared by its own s."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.array([max(0, math.ceil(math.log2(x / _THETA13))) if x > 0 else 0
                  for x in np.ravel(norm)]).reshape(norm.shape)
    u, v = _pade13_parts(a / (2.0**s)[..., None, None])
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


def _pade13_parts(a: np.ndarray) -> tuple:
    """Odd and even parts u, v of the [13/13] Pade numerator at a (or at
    each matrix of a stack), so that r(a) = (v - u)^-1 (v + u).  The powers
    of a are freed on return."""
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    np.einsum("...ii->...i", u)[...] += b[1]  # in place: the off-diagonal zeros keep their sign
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    np.einsum("...ii->...i", v)[...] += b[0]
    return a @ u, v


class TooFewExtremaError(ValueError):
    """Series has too few oscillation extrema for the requested fit."""


class NonDecayingEnvelopeError(ValueError):
    """Envelope fit did not produce a positive, finite decay time."""


class IntegrationError(RuntimeError):
    """Integration failed (non-finite state or tolerance violated)."""


@dataclass
class Trajectory:
    """Time series of derived observables of integrated states.

    column_order names every column; observables maps the name of each
    column that was computed to its real array over `times`.  A column
    listed but not held (the population of a state the run never reaches)
    is 0 throughout.
    """

    layout: HilbertLayout
    times: np.ndarray
    observables: dict
    column_order: list = field(default_factory=list)

    def series(self, name: str) -> np.ndarray:
        if name in self.observables:
            return self.observables[name]
        if name in self.column_order:
            return np.zeros(self.times.size)
        raise KeyError(f"no observable {name!r} among the trajectory's column_order")


def population_labels(layout: HilbertLayout) -> list:
    """CSV column names for bare-state populations, in basis-index order:
    pop_<n><s1..sN>, photon number major and the atoms' g/e after it in
    the order of their bits (g = 0), atom 1 most significant, as
    fockspace's basis encoding orders them."""
    atoms = ["".join(p) for p in itertools.product("ge", repeat=layout.n_atoms)]
    return [f"pop_{n}{a}" for n in range(layout.photon_dim) for a in atoms]


def subsystem_letter(factor: int) -> str:
    """Subsystem naming: A = photon, B..= atoms 1..N."""
    return chr(ord("A") + factor)


def tracked_columns(layout: HilbertLayout, track) -> list:
    """Names of the columns integrate() records for `track`, in order:
    populations in basis-index order, n_photon, the entropy of each single
    factor, then the concurrence of each atom pair.  Projection columns
    follow them.  A factor's letter is chr(ord("A") + factor), so past atom
    25 (Z) the names take the ASCII characters after Z: [ \\ ] ^ _ ` for
    atoms 26 to 31, a to z for 32 to 57 and { | } ~ for 58 to 61."""
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
    sector, _ = fs.states_up_to(layout, n_exc)
    return max(2, min(len(set(fs.factor_index(layout, sector, side).tolist()))
                      for side in (keep, complement)))


def integrate(
    gen: LindbladGenerator,
    psi0: dict,
    times,
    track: tuple = ("populations", "n_photon"),
    projections: dict | None = None,
) -> Trajectory:
    """Propagate |psi0><psi0| exactly over a uniform time grid and record
    observables.

    The state at each output time is held as (psi, x): the ket psi on the
    d_n states of psi0's excitation sector n, and, with loss, the density
    block x on the d_l states below it; rho = psi psi^dag + x.  The grid's
    step dt = (t[-1] - t[0]) / (len(t) - 1) builds the propagators once:
    K = expm(-i H_eff dt) for psi and, with loss, E and F for x_k = E
    x_(k-1) + F vec(psi_(k-1) psi_(k-1)^dag), or from one photon the jump
    Gramian G for p_G(t_k) = p_G(t_(k-1)) + psi_(k-1)^dag G psi_(k-1).
    times must be finite, strictly increasing and uniform, every step
    within 1e-12 of the span of dt, as a linspace's from 0 are (ValueError
    otherwise); the trajectory keeps the caller's grid bit for bit.

    gen may also be a sequence of generators on one layout with the same
    collapse channels, such as the points of a sweep; times is then a
    sequence of as many uniform grids, all of one length, and a list of
    trajectories returns, one per generator.  They propagate as one stack:
    each keeps its own H, step and propagators, and is exactly what it
    would be alone.

    track may contain any of TRACKABLE (ValueError on any other entry).
    projections maps extra column names to kets whose population <v|rho|v>
    is recorded.  Entropies are computed per single factor (photon and each
    atom), normalized by sector_norm_dim at psi0's excitation number;
    concurrence is computed for every atom pair.  No trace renormalization
    is applied: x has only its own feed, and the run raises
    IntegrationError if |tr rho - 1| = ||psi|^2 + tr x - 1| exceeds
    TRACE_TOL, or max |x - x^dag| exceeds HERM_TOL, at any output time,
    naming the first such time (of the first run in a stack that has one).

    psi0 and each projection are kets {basis index: amplitude}, as
    fockspace.basis_state builds them, every index in 0..d-1.  psi0's
    non-zero amplitudes lie in one excitation sector, as every basis state's
    do (ValueError otherwise, and if its squared norm is not 1 within 1e-9).
    Populations of the states above that sector, and without loss of those
    below it, are exactly 0: column_order lists them, but the trajectory
    holds no array for them (Trajectory.series reads them as zeros), so a
    run allocates nothing of length d.  Observables are evaluated a chunk of
    chunk_states(d_n) output times at a time; the chunk size does not
    change them.
    """
    unknown = [t for t in track if t not in TRACKABLE]
    if unknown:
        raise ValueError(
            f"track has unknown entries {unknown}; valid: {', '.join(TRACKABLE)}"
        )
    stacked = not isinstance(gen, LindbladGenerator)
    gens = list(gen) if stacked else [gen]
    if not gens:
        raise ValueError("integrate needs at least one generator")
    layout, channels_of = gens[0].layout, gens[0].collapse_channels
    if any(g.layout != layout or g.collapse_channels != channels_of for g in gens):
        raise ValueError("a stack of generators must share one layout and its "
                         "collapse channels")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 + stacked or times.shape[-1] == 0:
        raise ValueError("times must be a non-empty 1-D grid" if not stacked else
                         "times must hold one non-empty grid per generator, all of one length")
    times = times.reshape(-1, times.shape[-1])
    if len(times) != len(gens):
        raise ValueError(f"{len(gens)} generators but {len(times)} time grids")
    if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
        raise ValueError("times must be finite and strictly increasing")
    n_runs, n_out = times.shape
    span = times[:, -1:] - times[:, :1]
    dt = span / max(1, n_out - 1)
    if np.any(np.abs(np.diff(times) - dt) > 1e-12 * span):
        raise ValueError("times must be uniform: every step within 1e-12 of the span "
                         "of (t[-1] - t[0]) / (len(t) - 1)")
    projections = dict(projections or {})
    for name, ket in [("psi0", psi0), *projections.items()]:
        if any(not 0 <= index < layout.dim for index in ket):
            raise ValueError(f"{name} has a basis index outside 0..{layout.dim - 1}")
    amplitudes = np.array(list(psi0.values()), dtype=complex)
    # the excitations of psi0's non-zero amplitudes: photons plus atom bits
    nonzero = np.array(list(psi0), dtype=np.int64)[amplitudes != 0]
    sectors = (nonzero >> layout.n_atoms) + np.bitwise_count(
        nonzero & (2**layout.n_atoms - 1))
    if np.any(sectors != sectors[:1]):
        raise ValueError(
            "psi0 spans several excitation sectors; integrate needs a state "
            "inside one excitation sector"
        )
    norm2 = float(np.vdot(amplitudes, amplitudes).real)
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"psi0 has squared norm {norm2!r}, not 1 within 1e-09")
    # Every state psi0 can reach lives on the basis states up to its
    # excitation number n (no drive; H and each L^dag L conserve it, each
    # jump lowers it by one).  Sector n keeps rank one: psi.  Only jumps
    # fill the states below it, which a lossless run leaves empty.
    n_exc = int(sectors[0])
    kept, exc = fs.states_up_to(layout, n_exc)
    in_top = exc == n_exc
    top, low = kept[in_top], kept[~in_top] if channels_of else kept[:0]
    d_top, d_low = top.size, low.size

    # Populations lead, in basis-index order; only those of the propagated
    # states are held, the others are exactly 0.
    order = np.concatenate([top, low])
    labels = population_labels(layout) if "populations" in track else []
    others = tracked_columns(layout, set(track) - {"populations"}) + list(projections)
    column_order = labels + others
    populations = [labels[k] for k in order] if labels else []
    # One row per run; the chunk loop below reads them as one series.
    obs = {name: np.zeros((n_runs, n_out)) for name in populations + others}

    arrays = allocations(d_top, d_low, n_runs, n_out)
    psi = np.empty(arrays["psi"].shape, arrays["psi"].dtype)
    psi[:, 0] = _kets_on([psi0], top)
    x = np.zeros(arrays["x"].shape, arrays["x"].dtype)  # row-major vec of x
    h_eff = build_hamiltonian(layout, [g.params for g in gens], top)
    rates = decay_rates(gens[0], top)  # Gamma = sum rate L^dag L on the top sector
    h_eff -= 0.5j * np.diag(rates)
    _power_series(psi, expm(-1j * h_eff * dt[..., None]).swapaxes(-1, -2))
    feed_steps = arrays["feed"].shape[1]
    if d_low == 1:
        # x is p_G: each step adds psi^dag G psi = Re sum conj(psi) (G psi)
        # at its start (on the kets' real and imaginary parts as floats),
        # for every run a few steps at a time.
        gram = _jump_gramian(arrays["van_loan"], h_eff, rates, dt).swapaxes(-1, -2)
        for k in range(0, n_out - 1, feed_steps):
            kets = psi[:, k:min(k + feed_steps, n_out - 1)]
            x[:, k + 1:k + 1 + kets.shape[1], 0] = np.einsum(
                "rki,rki->rk", kets.view(float), (kets @ gram).view(float))
        np.cumsum(x, axis=1, out=x)
    elif d_low:
        # Van Loan (1978): the top rows of expm([[L_low, J], [0, L_top]] dt)
        # are [E, F], the step of x and its feed from psi psi^dag.
        top_rows = expm(dt[..., None] * _van_loan_generator(
            arrays["van_loan"], gens, kept, in_top, h_eff))[:, :d_low**2].copy()
        x_step, x_feed = top_rows[..., :d_low**2], top_rows[..., d_low**2:]
        # The feed's outer products are built for every run, a few steps at a time.
        for k in range(0, n_out - 1, feed_steps):
            kets = psi[:, k:min(k + feed_steps, n_out - 1)]
            rank_one = (kets[..., :, None] * kets[..., None, :].conj()).reshape(
                n_runs, kets.shape[1], -1)
            x[:, k + 1:k + 1 + kets.shape[1]] = rank_one @ x_feed.swapaxes(-1, -2)
        _linear_scan(x, x_step.swapaxes(-1, -2))

    # Every state stays block-diagonal in excitation number, so the reduced
    # state of one factor is diagonal, and that of an atom pair has only the
    # coherence rho[ge, eg] off the diagonal: both follow from marginal
    # populations, summed by 0/1 matrices from the populations of `order`,
    # and the pair's coherence from the elements |.. g_i .. e_j ..><.. e_i
    # .. g_j ..|.  Those pair up inside each block in basis order, since
    # swapping the two atoms' bits moves every basis index by one offset
    # and keeps its excitation number.  Each factor's and pair's maps are
    # keyed by the column tracked_columns names for it.
    nph_diag = fs.factor_index(layout, order, (0,)).astype(float)
    factors = range(layout.n_atoms + 1)
    entropy_maps = {
        name: (np.eye(layout.factor_dims()[p])[fs.factor_index(layout, order, (p,))],
               sector_norm_dim(layout, (p,), n_exc))
        for name, p in zip(tracked_columns(layout, {"entropies"} & set(track)), factors)
    }
    pair_maps = {}
    for name, pair in zip(tracked_columns(layout, {"concurrence"} & set(track)),
                          itertools.combinations(factors[1:], 2)):
        index = fs.factor_index(layout, order, pair)
        ge, eg = (np.flatnonzero(index == v) for v in (1, 2))
        pair_maps[name] = (np.eye(4)[index], ge[ge < d_top], eg[eg < d_top],
                           ge[ge >= d_top] - d_top, eg[eg >= d_top] - d_top)
    vecs_top, vecs_low = (_kets_on(list(projections.values()), states) for states in (top, low))

    # Every run's output times in turn, as one series of states, evaluated
    # a chunk of the populations' rows at a time.
    n_states, chunk = n_runs * n_out, arrays["pops"].shape[0]
    all_kets, all_x = psi.reshape(n_states, d_top), x.reshape(n_states, d_low * d_low)
    series = {name: column.reshape(n_states) for name, column in obs.items()}
    for k0 in range(0, n_states, chunk):
        ks = slice(k0, min(k0 + chunk, n_states))
        kets = all_kets[ks]
        lower = all_x[ks].reshape(len(kets), d_low, d_low)
        pops = np.hstack([kets.real**2 + kets.imag**2,
                          np.real(np.diagonal(lower, axis1=1, axis2=2))])
        tr = pops.sum(axis=1)
        bad_trace = ~np.isfinite(tr) | (np.abs(tr - 1.0) > TRACE_TOL)
        herm = np.abs(lower - lower.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(bad_trace | (herm > HERM_TOL))
        if bad.size:
            b = bad[0]
            if bad_trace[b]:
                what, tol = f"trace deviation {tr[b] - 1.0:.3e}", TRACE_TOL
            else:
                what, tol = f"Hermiticity deviation {herm[b]:.3e} of x", HERM_TOL
            raise IntegrationError(
                f"{what} at t={times.flat[k0 + b]:.6g} ns exceeds tolerance {tol:g}"
            )
        for name, column in zip(populations, pops.T):
            series[name][ks] = column
        if "n_photon" in track:
            series["n_photon"][ks] = pops @ nph_diag
        for name, (m, norm_dim) in entropy_maps.items():
            series[name][ks] = ent.spectrum_entropy_stack(pops @ m, norm_dim)
        for name, (m, ge, eg, ge_low, eg_low) in pair_maps.items():
            series[name][ks] = ent.x_state_concurrence_stack(
                pops @ m,
                np.sum(kets[:, ge] * kets[:, eg].conj(), axis=1)
                + lower[:, ge_low, eg_low].sum(axis=1),
                np.sum(kets[:, eg] * kets[:, ge].conj(), axis=1)
                + lower[:, eg_low, ge_low].sum(axis=1),
            )
        if projections:
            amps = kets @ vecs_top.conj().T
            values = amps.real**2 + amps.imag**2 + np.real(
                np.sum((vecs_low.conj() @ lower) * vecs_low, axis=-1))
            for name, column in zip(projections, values.T):
                series[name][ks] = column

    trajectories = [
        Trajectory(layout=layout, times=times[r],
                   observables={name: column[r] for name, column in obs.items()},
                   column_order=column_order)
        for r in range(n_runs)
    ]
    return trajectories if stacked else trajectories[0]


def _kets_on(kets: list, states: np.ndarray) -> np.ndarray:
    """The amplitudes of each ket on the sorted basis indices `states`, one
    row per ket, 0 where it has none; its amplitudes off them are dropped."""
    out = np.zeros((len(kets), states.size), dtype=complex)
    for row, ket in zip(out, kets):
        for index, amplitude in ket.items():
            k = np.searchsorted(states, index)
            if k < states.size and states[k] == index:
                row[k] = amplitude
    return out


def _van_loan_generator(block: Alloc, gens: list, kept: np.ndarray, in_top: np.ndarray,
                        h_eff: np.ndarray) -> np.ndarray:
    """[[L_low, J], [0, L_top]] on (vec x, vec psi psi^dag) of each lossy
    run of a stack, allocated as `block`.

    L_low is the Liouvillian of the states below the top sector, L_top the
    action of H_eff on psi psi^dag, and J = sum rate (L kron L*) the jumps
    from the top sector into x, cut from each channel's L on the `kept`
    states, of which in_top marks the top sector.  Only here is an L built."""
    low = kept[~in_top]
    n_low = low.size**2
    out = np.zeros(block.shape, block.dtype)
    out[:, :n_low, :n_low] = [liouvillian_matrix(gen, low) for gen in gens]
    for rate, L, _ in collapse_operators(gens[0], kept):
        jump = L[np.ix_(~in_top, in_top)]
        out[:, :n_low, n_low:] += rate * np.kron(jump, jump.conj())
    eye = np.eye(h_eff.shape[-1])
    out[:, n_low:, n_low:] = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    return out


def _jump_gramian(block: Alloc, h_eff: np.ndarray, rates: np.ndarray,
                  dt: np.ndarray) -> np.ndarray:
    """G = int_0^dt K(s)^dag Gamma K(s) ds of each run of a stack, allocated
    as `block`: K(s) = expm(A s), A = -i H_eff on the top sector, and Gamma
    = diag(rates) = sum rate L^dag L there, so psi^dag G psi is what the
    jumps take from psi in one step dt.  With [[P, Q], [0, K]] =
    expm([[-A^dag, Gamma], [0, A]] dt), G = K^dag Q (Van Loan 1978)."""
    d = h_eff.shape[-1]
    out = np.zeros(block.shape, block.dtype)
    out[:, :d, :d] = -1j * h_eff.conj().swapaxes(-1, -2)
    out[:, :d, d:] = np.diag(rates)
    out[:, d:, d:] = -1j * h_eff
    out *= dt[..., None]
    step = expm(out)
    return step[:, d:, d:].conj().swapaxes(-1, -2) @ step[:, :d, d:]


def _power_series(rows: np.ndarray, step: np.ndarray):
    """rows[..., j, :] = rows[..., 0, :] @ step^j for j >= 1, by doubling:
    rows[n:2n] = rows[:n] @ step^n, step^n squared from the last.  No loop
    per row; a stack of rows takes a stack of steps."""
    n, power, count = 1, step, rows.shape[-2]
    while n < count:
        m = min(n, count - n)
        np.matmul(rows[..., :m, :], power, out=rows[..., n:n + m, :])
        n *= 2
        if n < count:
            power = power @ power


def _linear_scan(rows: np.ndarray, step: np.ndarray):
    """rows[..., j, :] <- rows[..., j - 1, :] @ step + rows[..., j, :] for
    j >= 1, in place, by a log-depth scan: pass p adds step^(2^p) times the
    row 2^p earlier, so rows[j] = sum_i rows[i] @ step^(j - i) over i <= j.
    A stack of rows takes a stack of steps."""
    s, power, count = 1, step, rows.shape[-2]
    while s < count:
        rows[..., s:, :] += rows[..., :-s, :] @ power
        s *= 2
        if s < count:
            power = power @ power


def _refined_extrema(times: np.ndarray, series: np.ndarray):
    """Interior extrema with parabolic sub-sample refinement.

    Returns (t_ext, v_ext, is_max) arrays.
    """
    y = np.asarray(series, dtype=float)
    d = np.diff(y)
    i = np.flatnonzero(d[:-1] * d[1:] < 0) + 1
    before, here, after = y[i - 1], y[i], y[i + 1]
    denom = before - 2.0 * here + after
    offset = np.divide(0.5 * (before - after), denom, out=np.zeros_like(denom),
                       where=denom != 0.0)
    t_ext = times[i] + offset * (0.5 * (times[i + 1] - times[i - 1]))
    return t_ext, here - 0.25 * (before - after) * offset, d[i - 1] > 0


def count_extrema(series) -> int:
    """Count interior extrema where the value differs from a neighbour's by
    more than MIN_PROMINENCE.  It only guards against float-level ripple:
    genuine but doubly-flat extrema (e.g. entropy maxima, where both the
    entropy derivative and the population rate vanish) sit just a few
    orders above it on realistic grids."""
    y = np.asarray(series, dtype=float)
    left, right = y[1:-1] - y[:-2], y[1:-1] - y[2:]
    return int(np.count_nonzero((left * right > 0) & (
        (np.abs(left) > MIN_PROMINENCE) | (np.abs(right) > MIN_PROMINENCE))))


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


def envelope_lifetime(traj: Trajectory, observable: str) -> EnvelopeFit:
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
    if t_max.size < MIN_ENVELOPE_MAXIMA:
        raise TooFewExtremaError(
            f"need >= {MIN_ENVELOPE_MAXIMA} oscillation maxima, found {t_max.size}"
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


def write_trajectory_csv(traj: Trajectory, fh, start: int = 0, stop: int | None = None) -> None:
    """Emit `time_ns, <observables>` rows with a schema comment line.

    Column order is deterministic: populations in basis-index order, then
    n_photon, entropies S_A.., concurrence pairs, then any extra projection
    columns (in the order they were requested).  Every cell is repr() of
    its float.  A listed column that the trajectory does not hold is 0
    throughout, the constant "0.0" that repr gives, and each run of such
    columns, with the separators around it, is one constant piece of every
    row: none of its cells is converted.

    The held columns and the time become text a block of CSV_BLOCK_ROWS
    rows at a time, one column at a time, and a column whose block has the
    same float64 bytes as an earlier column's (n_photon and pop_1g.. of a
    one-photon run) reuses that text.  Rows are joined from the pieces and
    written one by one, so what is held is one block's text of the held
    columns, never a block of rows of the constant pieces.

    Only rows start..stop - 1 (to the last row if stop is None) are
    written, and the schema line and header only where start is 0: the
    pieces of a file cut at multiples of CSV_BLOCK_ROWS, written in order,
    are the bytes of the whole file.
    """
    cols = traj.column_order
    if start == 0:
        fh.write(f"# schema: {TRAJECTORY_SCHEMA}\n")
        fh.write(",".join(["time_ns"] + cols) + "\n")
    cells = [traj.times] + [traj.observables.get(c, "0.0") for c in cols]
    # A row is its cells between separators; each run of text, a separator
    # and the constant cells next to it, merges into one piece.
    tokens = [x for cell in cells for x in (",", cell)][1:] + ["\n"]
    pieces = []
    for constant, run in itertools.groupby(tokens, key=lambda x: isinstance(x, str)):
        pieces += ["".join(run)] if constant else run
    stop = len(traj.times) if stop is None else stop
    for first in range(start, stop, CSV_BLOCK_ROWS):
        size = min(CSV_BLOCK_ROWS, stop - first)
        texts = {}  # the block's text of each distinct column, by its bytes
        columns = []
        for piece in pieces:
            if isinstance(piece, str):
                columns.append(itertools.repeat(piece, size))
                continue
            block = piece[first:first + size]
            key = block.tobytes()  # exact bytes: 0.0 and -0.0 never share text
            if key not in texts:
                texts[key] = list(map(repr, block.tolist()))
            columns.append(texts[key])
        fh.writelines(map("".join, zip(*columns)))
