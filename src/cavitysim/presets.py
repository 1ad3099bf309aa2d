"""Physical defaults for the nanobeam designs and the Rb emitter.

Every scenario preset draws its numbers from here so there is exactly one
place to audit.  Comments state what each value is physically; values that
are consistency-chain derivations rather than independent inputs say so.
"""

import math
from dataclasses import dataclass

from .units import SPEED_OF_LIGHT

# Cavity operating wavelength (nm); resonant with the Rb-87 D2 transition.
LAMBDA_NM = 780.0

# Photonic-crystal geometry (nm): hole lattice spacing, hole radius, and the
# bow-tie tip gap of the tip-loaded design.
LATTICE_NM = 262.0
HOLE_RADIUS_NM = 53.0
TIP_GAP_NM = 20.0

# Si3N4 relative permittivity (real part) and the refractive index used to
# express mode volumes in (lambda/n)^3.
EPS_DIELECTRIC = 3.9
REFRACTIVE_INDEX = math.sqrt(EPS_DIELECTRIC)

# Rb-87 D2 line (Steck's alkali D-line data): natural linewidth (ordinary
# MHz) and effective far-detuned dipole moment (C m).
GAMMA_RB87_D2_MHZ = 6.0666
RB87_D2_DIPOLE_CM = 3.584e-29

# Trap displacement statistics (RMS, nm) for the hole-trapped and
# tip-trapped sites: fig5's trap rows average over them.
TRAP_SIGMAS_NM = {
    "D1": (5.3, 5.1, 0.0),
    "D3": (4.8, 7.5, 0.0),  # tip trap, blue-detuned like the central-tip design D2's
}


def kappa_ordinary_hz(q_factor: float, lambda_nm: float = LAMBDA_NM) -> float:
    """Cavity linewidth nu/Q in ordinary Hz."""
    if q_factor <= 0:
        raise ValueError(f"quality factor must be positive, got {q_factor}")
    return SPEED_OF_LIGHT / (lambda_nm * 1e-9) / q_factor


def _g_from_cooperativity(c_target: float, q_factor: float) -> float:
    """Coupling (ordinary GHz) that reproduces a design cooperativity
    C = g^2/(kappa gamma) with ordinary-frequency inputs.

    Consistency-chain derivation: used for the tip-loaded designs whose C
    is quoted directly; not an independent prediction.
    """
    kappa = kappa_ordinary_hz(q_factor)
    gamma = GAMMA_RB87_D2_MHZ * 1e6
    return math.sqrt(c_target * kappa * gamma) / 1e9


@dataclass(frozen=True)
class Design:
    """One nanobeam design: quality factor, trap-site coupling, figure of
    merit, and (when a synthetic map exists) the global mode volume in
    (lambda/n)^3."""

    name: str
    q_factor: float
    g_ghz: float
    cooperativity: float
    v_global_lambda_n3: float | None


DESIGNS = {
    # Plain nanobeam: quoted Q, quoted trap-site coupling of 9 GHz, and
    # quoted V = 2.2 (lambda/n)^3; its C = g^2/(kappa gamma) = 4.5e5.
    "D1": Design("D1", q_factor=1.3e7, g_ghz=9.0, cooperativity=4.5e5,
                 v_global_lambda_n3=2.2),
    # Central-tip design: quoted Q and C; g derived from the C chain.
    "D2": Design("D2", q_factor=1.2e7,
                 g_ghz=_g_from_cooperativity(1.3e6, 1.2e7),
                 cooperativity=1.3e6, v_global_lambda_n3=None),
    # Off-central-tip design: quoted Q and C; g derived from the C chain.
    "D3": Design("D3", q_factor=1.1e7,
                 g_ghz=_g_from_cooperativity(1.2e6, 1.1e7),
                 cooperativity=1.2e6, v_global_lambda_n3=0.66),
}
