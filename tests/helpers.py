"""Test data shared by the test modules."""

import numpy as np

from snls.torus import SpectralField, TorusGrid


def random_field(K, seed, scale=1.0):
    """A field on modes -K..K whose real and imaginary parts are scale
    times standard normals drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    c = scale * (rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1))
    return SpectralField(c, TorusGrid(K))
