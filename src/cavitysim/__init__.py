"""Open-system dynamics of N two-level atoms coupled to one lossy cavity
mode, with entanglement diagnostics, position-dependent coupling derived
from cavity field maps, and a scenario-based experiment CLI."""

__version__ = "0.1.0"

from .fockspace import HilbertLayout, basis_state
from .model import LindbladGenerator, SystemParams, build_generator, build_hamiltonian
from .dynamics import Trajectory, envelope_lifetime, integrate, rabi_frequency
from .analytic import peak_entanglement_metrics

__all__ = [
    "__version__",
    "HilbertLayout", "basis_state",
    "LindbladGenerator", "SystemParams", "build_generator", "build_hamiltonian",
    "Trajectory", "envelope_lifetime", "integrate", "rabi_frequency",
    "peak_entanglement_metrics",
]
