import concurrent.futures
import itertools
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from rltsketch import metric
from rltsketch.metric import (
    INF,
    ROW_BLOCK,
    PointSet,
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


CDIST_METRIC = {1: ("cityblock", {}), 2: ("euclidean", {}), 3: ("minkowski", {"p": 3}),
                INF: ("chebyshev", {})}


@pytest.fixture
def fast_switch():
    """Threads switch every microsecond, so worker threads interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


# pairwise_distances computes each unordered pair once, by row blocks spread
# over worker threads, and mirrors it; the result must still be the full
# cdist bit for bit, at the defaults and at 1, 2 and 3 workers over blocks
# of 4 rows (up to 65 blocks, many per worker).
@pytest.mark.parametrize("d", [1, 300])
@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
@pytest.mark.parametrize("p", [1, 2, 3, INF])
def test_pairwise_distances_is_bitwise_cdist(monkeypatch, fast_switch, p, n, d):
    rng = np.random.default_rng(n * 1000 + d)
    row_scales = 10.0 ** rng.permutation(np.linspace(-6.0, 6.0, n))[:, None]
    inputs = [
        rng.normal(size=(n, d)) * row_scales,  # rows at scales 1e-6 to 1e6
        rng.integers(-50, 50, size=(n, d)),
        rng.uniform(-1.0, 1.0, size=(n, 2 * d))[:, ::2],  # not contiguous
    ]
    kind, kw = CDIST_METRIC[p]
    for x in inputs:
        want = cdist(x, x, kind, **kw)
        dm = pairwise_distances(x, p)
        assert np.array_equal(dm, want)
        assert np.array_equal(dm, dm.T)
        for workers in (1, 2, 3):
            with monkeypatch.context() as m:
                m.setattr(metric, "ROW_BLOCK", 4)
                m.setattr(metric, "WORKERS", workers)
                assert np.array_equal(pairwise_distances(x, p), want)


def test_scale_points_of_one_point(monkeypatch):
    # one point: no scaling, phi 1 and a zero matrix; its distance matrix,
    # like any single row block, starts no thread pool, and more blocks
    # start one of at most one worker per block
    started = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(metric, "WORKERS", 3)
    ps = scale_points(np.array([[3.0, -7.5]]), 2)
    assert (ps.scale_exponent, ps.phi, ps.dist.tolist()) == (0, 1.0, [[0.0]])
    assert pairwise_distances(ps.points, 2).tolist() == [[0.0]]
    pairwise_distances(np.arange(float(ROW_BLOCK))[:, None], 1)
    assert started == []
    pairwise_distances(np.arange(ROW_BLOCK + 1.0)[:, None], 1)
    pairwise_distances(np.arange(3 * ROW_BLOCK + 1.0)[:, None], 1)
    assert started == [2, 3]


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
    # the norm check forgives float rounding, not a real excess
    for p in (1, 2, INF):
        with pytest.raises(ValueError, match="norm precondition"):
            round_to_net(np.array([1.0 + 1e-7, 0.0]), 0.5, p)
        round_to_net(np.array([1.0 + 1e-10, 0.0]), 0.5, p)


@pytest.mark.parametrize("p", [1, 2, 3, INF])
def test_round_to_net_rejects_a_nan_row(p):
    # a NaN norm compares false both ways: it must fail the check, not pass
    with pytest.raises(ValueError, match="norm precondition"):
        round_to_net(np.array([np.nan, 0.0]), 1.0, p)
    with pytest.raises(ValueError, match="norm precondition"):
        round_to_net(np.array([[0.5, 0.0], [0.0, np.nan]]), np.full(2, 0.5), p)


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


def test_scale_points_rejects_a_1d_array():
    with pytest.raises(ValueError, match="points must be a non-empty 2-D array"):
        scale_points(np.array([0.0, 1.0]), 2)


@pytest.mark.parametrize("points,phi,error", [
    (np.zeros((0, 2)), 1.0, "need n >= 1 and d >= 1"),
    (np.array([[0.0], [0.5]]), 1.0, "min pairwise distance 0.5 < 1 after scaling"),
    (np.array([[0.0], [3.0]]), 2.0, "max pairwise distance 3.0 > phi=2.0"),
], ids=["empty", "below-one", "above-phi"])
def test_point_set_validation_failures(points, phi, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        PointSet(points, 2, phi=phi).validate()


def test_a_single_point_validates():
    PointSet(np.array([[0.0]]), 2).validate()  # no pair to check


def test_scale_points_tells_an_underflow_from_duplicates():
    # distinct points whose p=2 distance squares to 0 inside cdist are named
    # as such; p=1 reads the same points without squaring
    pts = np.array([[0.0, 0.0], [1e-170, 0.0], [5.0, 1.0]])
    with pytest.raises(ValueError, match="points 0 and 1 are distinct, but their distance"):
        scale_points(pts, 2)
    assert scale_points(pts, 1).n == 3
    for dup in ([[0.0, 0.0], [3.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 1.0], [-0.0, 0.0]]):
        with pytest.raises(ValueError, match=r"^duplicate points \(.*\): rows 0 and 2$"):
            scale_points(np.array(dup), 2)


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
