"""Deterministic low-discrepancy direction and point samplers.

Everything here is a pure function of its arguments (including the seed), so
repeated runs produce byte-identical sampling plans.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def van_der_corput(count: int, base: int = 2) -> np.ndarray:
    """Radical inverses of 1..count in `base`, summed digit by digit from the lowest."""
    n, out, denom = np.arange(1, count + 1), np.zeros(count), 1.0
    while n.any():
        n, rem = np.divmod(n, base)
        denom *= base
        out += rem / denom
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
    # Halton points in an even number of coordinates (the j-th in the j-th
    # prime; Bertrand: a prime lies in (p, 2p]) under one seeded
    # Cranley-Patterson shift, made Gaussian by Box-Muller on coordinate pairs
    primes = [2]
    while len(primes) < dim + dim % 2:
        primes.append(next(p for p in range(primes[-1] + 1, 2 * primes[-1] + 1) if all(p % q for q in primes)))
    shift = np.random.default_rng(seed).random(len(primes))
    u = (np.column_stack([van_der_corput(count, p) for p in primes]) + shift) % 1.0
    r, angle = np.sqrt(-2.0 * np.log1p(-u[:, 0::2])), 2.0 * np.pi * u[:, 1::2]
    g = np.hstack([r * np.cos(angle), r * np.sin(angle)])[:, :dim]
    g[~g.any(axis=1), 0] = 1.0  # all radii zero (u = 0 in every even coordinate): e_0
    return g / np.linalg.norm(g, axis=1)[:, None]


def radial_fractions(count: int) -> np.ndarray:
    """Strictly interior low-discrepancy fractions of (0, 1)."""
    return van_der_corput(count)
