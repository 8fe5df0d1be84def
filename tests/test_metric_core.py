import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rltsketch.metric import (
    INF,
    lp_distance,
    norm_root,
    pairwise_distances,
    randomized_grid_round,
    round_to_net,
    scale_points,
)


def test_lp_distance_examples():
    assert lp_distance([0, 0], [3, 4], 2) == 5.0
    assert lp_distance([0, 0], [3, 4], 1) == 7.0
    assert lp_distance([0, 0], [3, 4], INF) == 4.0


def test_lp_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_distance([0, 0], [1, 2, 3], 2)


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(12, 4))
    for p in (1, 2, 3, INF):
        dm = pairwise_distances(pts, p)
        for i, j in ((0, 5), (2, 11), (7, 3)):
            assert dm[i, j] == pytest.approx(lp_distance(pts[i], pts[j], p), rel=1e-12)


def test_round_to_net_examples():
    el = round_to_net(np.array([0.6]), 0.25, 2)
    assert el.tolist() == [2]
    assert el[0] * 0.25 == pytest.approx(0.5)  # coords * cell side gamma/d^(1/p)

    el = round_to_net(np.array([0.5]), 0.25, 2)
    assert el.tolist() == [2]  # exact multiples map to themselves

    el = round_to_net(np.array([0.37, -0.21]), 0.5, 2)
    assert el.tolist() == [1, -1]


def test_round_to_net_rejects_large_norm():
    with pytest.raises(ValueError):
        round_to_net(np.array([1.0, 1.0]), 0.5, 2)
    with pytest.raises(ValueError):
        round_to_net(np.array([0.5]), 0.0, 2)


@st.composite
def unit_ball_vector(draw):
    p = draw(st.sampled_from([1, 2, 3, INF]))
    d = draw(st.integers(min_value=1, max_value=6))
    raw = np.array(draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=d, max_size=d)))
    nrm = lp_distance(raw, np.zeros(d), p)
    if nrm > 1.0:
        raw = raw / (nrm * (1 + 1e-12))
    return raw, p


@settings(max_examples=200, deadline=None)
@given(unit_ball_vector(), st.floats(min_value=0.01, max_value=1.0))
def test_net_rounding_distance_and_membership(vp, gamma):
    v, p = vp
    el = round_to_net(v, gamma, p)
    dec = el * (gamma / norm_root(len(v), p))  # coords * cell side
    assert lp_distance(dec, v, p) <= gamma * (1 + 1e-9)
    assert lp_distance(dec, np.zeros_like(dec), p) <= 2.0 + 1e-9
    bound = math.ceil(2.0 * norm_root(len(v), p) / gamma)
    assert np.abs(el).max() <= bound


def test_randomized_round_examples():
    c = randomized_grid_round(np.array([0.3]), 1.0, np.array([0.5]))
    assert c.tolist() == [0]
    c = randomized_grid_round(np.array([0.3]), 1.0, np.array([0.8]))
    assert c.tolist() == [1]
    with pytest.raises(ValueError):
        randomized_grid_round(np.array([0.3]), 1.0, np.array([1.5]))
    with pytest.raises(ValueError):
        randomized_grid_round(np.array([0.3]), 0.0, np.array([0.5]))


def _corner_samples(y, cell, count, seed):
    """i.i.d. corner samples via one call on stacked copies (the rounding is
    coordinate-wise, so blocks of an enlarged vector are independent draws)."""
    rng = np.random.default_rng(seed)
    d = len(y)
    tiled = np.tile(y, count)
    corners = randomized_grid_round(tiled, cell, rng.random(count * d))
    return corners.reshape(count, d) * cell


def test_randomized_round_unbiased_mean():
    y = np.array([0.3])
    samples = _corner_samples(y, 1.0, 100_000, seed=1)[:, 0]
    se = samples.std() / math.sqrt(len(samples))
    assert abs(samples.mean() - 0.3) <= 3 * se


def test_randomized_round_support_is_own_cell():
    y = np.array([0.37, -1.62])
    cell = 0.25
    samples = _corner_samples(y, cell, 4000, seed=2)
    base = np.floor(y / cell) * cell
    for j in range(2):
        vals = np.unique(samples[:, j])
        assert set(np.round(vals / cell).astype(int)) <= {
            int(round(base[j] / cell)), int(round(base[j] / cell)) + 1}
        assert vals.max() - vals.min() <= cell  # support interval length


def test_randomized_round_zero_displacement_stays_at_origin():
    # a displacement already on a grid point never rounds up (fraction 0)
    samples = _corner_samples(np.zeros(3), 0.5, 2000, seed=8)
    assert np.all(samples == 0.0)


def test_randomized_round_up_probability_matches_fraction():
    y = np.array([0.7])
    cell = 1.0
    n = 100_000
    samples = _corner_samples(y, cell, n, seed=3)[:, 0]
    p_up = (samples == 1.0).mean()
    frac = 0.7
    se = math.sqrt(frac * (1 - frac) / n)
    assert abs(p_up - frac) <= 4 * se


def test_grid_points_near_ball_grow_as_constant_power_d():
    # lattice points of cell gamma/d^(1/p) within distance 2*gamma of a point:
    # count stays below a fixed constant to the power d (spot check d <= 3)
    rng = np.random.default_rng(4)
    for d in (1, 2, 3):
        for gamma in (0.1, 0.25, 1.0):
            for p in (1, 2, INF):
                x = rng.uniform(-1, 1, size=d)
                cell = gamma / norm_root(d, p)
                radius_cells = int(math.ceil(2 * gamma / cell)) + 1
                base = np.floor(x / cell).astype(int)
                count = 0
                for offs in itertools.product(range(-radius_cells, radius_cells + 2), repeat=d):
                    pt = (base + np.array(offs)) * cell
                    if lp_distance(pt, x, p) <= 2 * gamma:
                        count += 1
                assert count <= 9 ** d, (d, gamma, p, count)


def test_scale_points_powers_of_two():
    ps = scale_points(np.array([[0.0], [5.0]]), 2)
    assert ps.scale_exponent == 2  # divisor 4 lies in (2.5, 5]
    assert ps.distance_matrix()[0, 1] == 1.25
    ps = scale_points(np.array([[0.0], [1.0]]), 2)
    assert ps.scale_exponent == 0
    with pytest.raises(ValueError):
        scale_points(np.array([[1.0], [1.0]]), 2)
    with pytest.raises(ValueError):
        scale_points(np.array([[np.nan], [1.0]]), 2)


def test_scale_points_min_distance_exact():
    rng = np.random.default_rng(5)
    for p in (1, 2, INF):
        ps = scale_points(rng.normal(size=(20, 3)) * 100, p)
        dm = ps.distance_matrix()
        off = dm[~np.eye(20, dtype=bool)]
        assert 1.0 <= off.min() < 2.0
        assert off.max() == ps.phi
        ps.validate()


@st.composite
def unit_ball_rows(draw):
    p = draw(st.sampled_from([1, 2, 3, INF]))
    d = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=6))
    raw = np.array(draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=k * d, max_size=k * d))).reshape(k, d)
    for row in raw:
        nrm = lp_distance(row, np.zeros(d), p)
        if nrm > 1.0:
            row /= nrm * (1 + 1e-12)
    return raw, p


@settings(max_examples=200, deadline=None)
@given(unit_ball_rows(), st.data())
def test_row_wise_rounding_equals_per_row_calls(mp, data):
    m, p = mp
    k, d = m.shape
    scales = st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k)
    gammas = np.array(data.draw(scales))
    want = np.stack([round_to_net(m[i], gammas[i], p) for i in range(k)])
    got = round_to_net(m, gammas, p)
    assert got.dtype == want.dtype and np.array_equal(got, want)

    y = m * 2.0**data.draw(st.integers(min_value=-4, max_value=8))
    cells = np.array(data.draw(scales))
    sigma = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                        min_size=d, max_size=d)))
    want = np.stack([randomized_grid_round(y[i], cells[i], sigma) for i in range(k)])
    got = randomized_grid_round(y, cells, sigma)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_row_wise_rounding_keeps_the_checks():
    m = np.array([[0.5, 0.0], [1.0, 1.0], [0.0, 0.25]])
    with pytest.raises(ValueError):
        round_to_net(m[1], 0.5, 2)
    with pytest.raises(ValueError):
        round_to_net(m, np.full(3, 0.5), 2)  # one row of norm above 1
    with pytest.raises(ValueError):
        round_to_net(m[[0, 2]], np.array([0.5, 0.0]), 2)
    with pytest.raises(ValueError):
        randomized_grid_round(m, np.array([1.0, 0.0, 1.0]), np.full(2, 0.5))
    with pytest.raises(ValueError):
        randomized_grid_round(m, np.ones(3), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        randomized_grid_round(m, np.ones(3), np.full(3, 0.5))
