import numpy as np
import pytest

from centroaffine.sampling import unit_directions, van_der_corput


def _van_der_corput_loop(count, base):
    # the digit loop, one index at a time: the reference for the vectorized form
    out = np.empty(count)
    for i in range(count):
        n, denom, x = i + 1, 1.0, 0.0
        while n:
            n, rem = divmod(n, base)
            denom *= base
            x += rem / denom
        out[i] = x
    return out


@pytest.mark.parametrize("base", range(2, 14))
def test_van_der_corput_matches_the_digit_loop(base):
    for count in (0, 1, 2, base, base * base + 1, 10007):
        assert van_der_corput(count, base).tobytes() == _van_der_corput_loop(count, base).tobytes()


def _largest_probe_angle(directions, probes):
    nearest = np.concatenate([(probes[i : i + 1000] @ directions.T).max(axis=1) for i in range(0, len(probes), 1000)])
    return float(np.arccos(min(1.0, nearest.min())))


def _unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1)[:, None]


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_halton_directions_cover_the_sphere(dim):
    count = 5000
    directions = unit_directions(dim, count, 0)
    assert directions.shape == (count, dim)
    assert np.abs(np.linalg.norm(directions, axis=1) - 1.0).max() <= 1e-15
    assert np.array_equal(directions, unit_directions(dim, count, 0))
    assert not np.array_equal(directions, unit_directions(dim, count, 1))
    # the largest angle from a probe direction to the set: below that of as
    # many seeded independent Gaussian directions
    probes = _unit_rows(np.random.default_rng(1).standard_normal((20000, dim)))
    iid = _unit_rows(np.random.default_rng(0).standard_normal((count, dim)))
    assert _largest_probe_angle(directions, probes) < _largest_probe_angle(iid, probes)


def test_halton_row_with_every_radius_zero_is_a_unit_vector(monkeypatch):
    # a shift of 1 - 1/p moves the first point's coordinates 1/p to 0, so every
    # Box-Muller radius of that row is 0: the row becomes e_0
    class Shift:
        def random(self, m):
            return 1.0 - 1.0 / np.array([2.0, 3.0, 5.0, 7.0][:m])

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Shift())
    directions = unit_directions(4, 3, 0)
    assert directions[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert np.abs(np.linalg.norm(directions, axis=1) - 1.0).max() <= 1e-15
