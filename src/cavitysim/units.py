"""Unit conventions and conversions.

Internally the dynamics code works in nanoseconds and angular frequency in
rad/ns, which keeps typical magnitudes near unity for the integrator
(an ordinary frequency of f GHz is f cycles per ns, i.e. 2*pi*f rad/ns).
Ordinary frequencies (Hz, MHz, GHz) appear only at configuration boundaries;
the factor of 2*pi is applied exactly once, in these helpers.

The field-map / coupling module works in SI units (m, J/m^3, rad/s) because
its formulas involve physical constants.
"""

import math

TWO_PI = 2.0 * math.pi

# CODATA / SI constants
SPEED_OF_LIGHT = 2.99792458e8        # m/s
HBAR = 1.054571817e-34               # J*s
EPSILON_0 = 8.8541878128e-12         # F/m


def ghz_to_angular(f_ghz: float) -> float:
    """Ordinary frequency in GHz -> angular frequency in rad/ns."""
    return TWO_PI * f_ghz


def mhz_to_angular(f_mhz: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/ns."""
    return TWO_PI * f_mhz * 1e-3
