"""Deterministic low-discrepancy direction and point samplers.

Everything here is a pure function of its arguments (including the seed), so
repeated runs produce byte-identical sampling plans.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def van_der_corput(count: int, base: int = 2) -> np.ndarray:
    out = np.empty(count)
    for i in range(count):
        n, denom, x = i + 1, 1.0, 0.0
        while n:
            n, rem = divmod(n, base)
            denom *= base
            x += rem / denom
        out[i] = x
    return out


def unit_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy unit vectors in R^dim, deterministic in (dim, count, seed)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim == 1:
        return np.array([[1.0] if i % 2 == 0 else [-1.0] for i in range(count)])
    if dim == 2:
        angles = 2.0 * np.pi * ((np.arange(count) * GOLDEN + 0.5 / count) % 1.0)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        # Fibonacci sphere
        i = np.arange(count) + 0.5
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = 2.0 * np.pi * ((i * GOLDEN) % 1.0)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    # scipy.stats costs most of the package's import time, and only
    # directions in 4 or more dimensions need it
    from scipy.special import ndtri
    from scipy.stats import qmc

    sampler = qmc.Halton(d=dim, scramble=True, seed=seed)
    u = sampler.random(count)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def radial_fractions(count: int) -> np.ndarray:
    """Strictly interior low-discrepancy fractions of (0, 1)."""
    return van_der_corput(count)
