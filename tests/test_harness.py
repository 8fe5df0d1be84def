import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from rltsketch import cli
from rltsketch.codec import build_lp_sketch, decode, size_report
from rltsketch.estimator import QueryContext
from rltsketch.euclid import build_euclidean_sketch
from rltsketch.harness import (
    GeneralMetric,
    InputError,
    embed_general_metric,
    evaluate,
    gen_lowerbound_euclidean,
    gen_lowerbound_general,
    ingest_array,
    ingest_points,
    load_metric_text,
    load_points_binary,
    load_points_text,
    planted_bits,
    recover_bits,
    save_metric_text,
    save_points_binary,
    save_points_text,
)
from rltsketch.metric import INF, pairwise_distances


def test_ingest_scaling_examples():
    ps = ingest_array(np.array([[0.0], [1.0], [10.0]]), 2)
    assert ps.scale_exponent == 0
    ps = ingest_array(np.array([[0.0], [5.0]]), 2)
    assert ps.scale_exponent == 2
    assert ps.distance_matrix()[0, 1] == 1.25
    with pytest.raises(InputError):
        ingest_array(np.array([[0.0], [0.0]]), 2)
    with pytest.raises(InputError):
        ingest_array(np.array([[0.0], [np.inf]]), 2)
    with pytest.raises(InputError):
        ingest_array(np.array([[1.0]]), 2)


# a distance overflows float64; a squared difference overflows inside cdist
@pytest.mark.parametrize("coords", [[-1e308, 1e308, 0.0], [0.0, 1.0, 1e200]],
                         ids=["distance", "square"])
def test_inputs_whose_distances_overflow_are_input_errors(tmp_path, capsys, coords):
    pts = np.array(coords)[:, None]
    with pytest.raises(InputError, match="overflow"):
        ingest_array(pts, 2)
    inp = tmp_path / "pts.txt"
    save_points_text(str(inp), pts)
    assert cli.main(["sketch", "--input", str(inp), "--eps", "0.1",
                     "--out", str(tmp_path / "s.rlts")]) == 2
    assert capsys.readouterr().err.startswith("error: distances or scaled coordinates overflow")


def test_an_underflowed_distance_is_an_input_error_of_its_own(tmp_path, capsys):
    inp = tmp_path / "pts.txt"
    save_points_text(str(inp), np.array([[0.0], [1e-300], [1e300]]))
    assert cli.main(["sketch", "--input", str(inp), "--eps", "0.1",
                     "--out", str(tmp_path / "s.rlts")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: points 0 and 1 are distinct, but their distance underflows")


def test_point_file_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(9, 4))
    txt = tmp_path / "pts.txt"
    save_points_text(str(txt), pts)
    assert np.allclose(load_points_text(str(txt)), pts, rtol=0, atol=1e-15)
    binp = tmp_path / "pts.bin"
    save_points_binary(str(binp), pts)
    assert np.array_equal(load_points_binary(str(binp)), pts)
    assert ingest_points(str(txt), "text", 2).n == 9
    with pytest.raises(InputError):
        ingest_points(str(txt), "parquet", 2)


def test_metric_file_round_trip(tmp_path):
    m = gen_lowerbound_general(6, 0.25, seed=3)
    path = tmp_path / "m.txt"
    save_metric_text(str(path), m)
    m2 = load_metric_text(str(path))
    assert m2.n == 6 and np.array_equal(m2.matrix, m.matrix)


def test_general_metric_validation():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    GeneralMetric(2, mat).validate()
    bad = mat.copy()
    bad[0, 1] = 2.0
    with pytest.raises(InputError):
        GeneralMetric(2, bad).validate()  # asymmetric
    tri = np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ])
    with pytest.raises(InputError):
        GeneralMetric(3, tri).validate()  # 5 > 1 + 1
    tri[0, 2] = tri[2, 0] = 2.0 + 1e-6  # past the rounding slack of 1e-9
    with pytest.raises(InputError):
        GeneralMetric(3, tri).validate()


def test_embed_two_point_metric():
    m = GeneralMetric(2, np.array([[0.0, 3.0], [3.0, 0.0]]))
    ps = embed_general_metric(m)
    # rows are (0,3) and (3,0) scaled by the power-of-two normalizer
    back = ps.distance_matrix() * math.ldexp(1.0, ps.scale_exponent)
    assert back[0, 1] == 3.0


def test_embed_uniform_metric():
    mat = np.ones((5, 5)) - np.eye(5)
    ps = embed_general_metric(GeneralMetric(5, mat))
    dm = ps.distance_matrix() * math.ldexp(1.0, ps.scale_exponent)
    off = ~np.eye(5, dtype=bool)
    assert np.allclose(dm[off], 1.0, rtol=0, atol=0)


def test_embed_random_metric_isometric():
    m = gen_lowerbound_general(50, 0.125, seed=9)
    ps = embed_general_metric(m)
    dm = ps.distance_matrix() * math.ldexp(1.0, ps.scale_exponent)
    assert np.allclose(dm, m.matrix, rtol=1e-12, atol=0)
    assert ps.p == INF and ps.d == 50


def test_embed_rejects_a_large_non_metric():
    # above 500 points the O(n^3) triangle check is skipped, so the isometry
    # check alone must catch d(0, 1) = 3 > d(0, 2) + d(2, 1) = 2
    n = 501
    mat = np.ones((n, n)) - np.eye(n)
    mat[0, 1] = mat[1, 0] = 3.0
    with pytest.raises(InputError, match="isometric"):
        embed_general_metric(GeneralMetric(n, mat))


# `rltsketch evaluate` takes its exact matrix from the ingested one, scaled
# back by 2^scale_exponent, instead of a second cdist of the raw points.
@pytest.mark.parametrize("p", [1, 2, 3, 2.5, INF])
def test_ingested_matrix_scaled_back_is_the_raw_matrix(p):
    rng = np.random.default_rng(14)
    for scale in (1e-7, 1e-3, 1.0, 1e4, 1e9):
        raw = rng.normal(size=(70, 5)) * scale
        ps = ingest_array(raw, p)
        back = np.ldexp(ps.distance_matrix(), ps.scale_exponent)
        assert np.array_equal(back, pairwise_distances(raw, p))


# The build reads each point pair in one direction only (diameters, the
# children's neighbor graph), so the ingested matrix must be exactly symmetric.
@pytest.mark.parametrize("p", [1, 2, 3, INF])
def test_ingested_distance_matrix_is_symmetric(p):
    pts = np.random.default_rng(12).normal(0.0, 1e3, size=(80, 7))
    dm = ingest_array(pts, p).distance_matrix()
    assert np.array_equal(dm, dm.T)


def test_embedded_metric_distance_matrix_is_symmetric():
    # any symmetric matrix with off-diagonal entries in [1, 2) is a metric
    upper = np.triu(np.random.default_rng(13).uniform(1.0, 2.0, size=(60, 60)), 1)
    dm = embed_general_metric(GeneralMetric(60, upper + upper.T)).distance_matrix()
    assert np.array_equal(dm, dm.T)


def test_gen_lowerbound_euclidean_identities():
    n, eps = 32, 0.25  # k = 16
    pts = gen_lowerbound_euclidean(n, eps, seed=5)
    assert pts.shape == (2 * n, n)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)
    bits = planted_bits(pts)
    sq = pairwise_distances(pts, 2)[:n, n:] ** 2
    expect = 2.0 - 2.0 * eps * bits
    assert np.allclose(sq, expect, rtol=1e-12, atol=1e-12)
    # supports are distinct and k-sparse
    assert bits.sum(axis=1).tolist() == [16] * n
    assert len({tuple(row) for row in bits}) == n


def test_gen_lowerbound_euclidean_rejects_bad_parameters():
    with pytest.raises(InputError):
        gen_lowerbound_euclidean(8, 0.3, seed=0)  # 1/eps^2 not integral
    with pytest.raises(InputError):
        gen_lowerbound_euclidean(8, 0.25, seed=0)  # k = 16 > n


def test_gen_lowerbound_general_contract():
    m = gen_lowerbound_general(20, 0.5, seed=7)
    m.validate()
    off = m.matrix[~np.eye(20, dtype=bool)]
    assert off.min() >= 1.0 and off.max() < 2.0
    steps = (off - 1.0) / 0.5
    assert np.allclose(steps, np.round(steps), atol=1e-12)
    again = gen_lowerbound_general(20, 0.5, seed=7)
    assert np.array_equal(m.matrix, again.matrix)
    with pytest.raises(InputError):
        gen_lowerbound_general(4, 0.3, seed=0)


@pytest.mark.parametrize("eps", [0.0, -1.0, -0.5, 1.0, 2.0, math.nan])
def test_gen_lowerbound_rejects_eps_outside_the_unit_interval(tmp_path, eps):
    with pytest.raises(InputError, match=r"eps must be in \(0, 1\)"):
        gen_lowerbound_euclidean(16, eps, seed=0)
    with pytest.raises(InputError, match=r"eps must be in \(0, 1\)"):
        gen_lowerbound_general(4, eps, seed=0)
    for command in ("gen-lb-euclidean", "gen-lb-general"):
        out = tmp_path / f"{command}.txt"
        assert cli.main([command, "--n", "16", "--eps", str(eps), "--out", str(out)]) == 2
        assert not out.exists()


def test_recover_threshold_logic(monkeypatch):
    # a degenerate sketch that always reports distance 2 recovers all zeros
    n, eps = 8, 0.5
    pts = gen_lowerbound_euclidean(n, eps, seed=1)
    sk = build_euclidean_sketch(ingest_array(pts, 2), eps / 8, seed=0)
    monkeypatch.setattr(QueryContext, "all_pairs",
                        lambda self: np.full((2 * n, 2 * n), 2.0))
    assert recover_bits(sk, n, eps).sum() == 0


def test_recover_bits_small_instance():
    n, eps = 16, 0.5  # k = 4
    pts = gen_lowerbound_euclidean(n, eps, seed=2)
    sk = build_euclidean_sketch(ingest_array(pts, 2), eps / 8, seed=3)
    got = recover_bits(sk, n, eps)
    assert np.array_equal(got, planted_bits(pts))


def test_evaluate_report_lp():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(30, 4)) * 20
    ps = ingest_array(pts, 2)
    sk = build_lp_sketch(ps, 0.1)
    exact = pairwise_distances(pts, 2)
    rep = evaluate(sk, exact)
    assert rep.flavor == "lp"
    assert rep.fraction_in_band == 1.0  # hard (1 +/- 4 eps) guarantee
    assert rep.max_rel_err <= 4 * 0.1
    assert 0.0 <= rep.p99_rel_err <= rep.max_rel_err
    # determinism: a second pass produces the identical report
    rep2 = evaluate(sk, exact)
    assert np.array_equal(rep.estimates, rep2.estimates)
    assert rep.summary()["max_rel_err"] == rep2.summary()["max_rel_err"]
    # accounting identity surfaces through the report
    assert rep.size["total_stored_bits"] == 8 * rep.size["file_bytes"]


def test_evaluate_decodes_once(monkeypatch):
    # one walk of the file gives both the tree and the size report, and the
    # query context reuses that tree
    import rltsketch.codec
    import rltsketch.estimator

    pts = np.random.default_rng(4).normal(size=(12, 3))
    sk = build_lp_sketch(ingest_array(pts, 2), 0.2)
    want = size_report(sk)
    walks = []
    read = rltsketch.codec._read

    def counting(data):
        walks.append(1)
        return read(data)

    monkeypatch.setattr(rltsketch.codec, "_read", counting)
    monkeypatch.setattr(rltsketch.estimator, "decode", None)  # no second decode
    rep = evaluate(sk, pairwise_distances(pts, 2))
    assert len(walks) == 1
    assert rep.size == want


@pytest.mark.parametrize("flavor", ["lp", "euclidean"])
def test_evaluate_summary_matches_off_diagonal_formulas(flavor):
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(40, 6)) * 7
    ps = ingest_array(pts, 2)
    sk = build_lp_sketch(ps, 0.2) if flavor == "lp" else build_euclidean_sketch(ps, 0.2, seed=5)
    exact = pairwise_distances(pts, 2)
    off = ~np.eye(40, dtype=bool)
    for band in (None, 0.02, -1.0):
        rep = evaluate(sk, exact, band=band)
        est = rep.estimates
        rel = np.abs(est[off] - exact[off]) / exact[off]
        band_err = rel
        if flavor == "euclidean":
            band_err = np.abs(est[off] ** 2 - exact[off] ** 2) / exact[off] ** 2
        assert np.array_equal(rep.rel_err[off], rel) and not rep.rel_err.diagonal().any()
        assert np.array_equal(rep.band_err[off], band_err) and not rep.band_err.diagonal().any()
        assert rep.max_rel_err == float(rel.max())
        assert rep.mean_rel_err == float(rel.mean())
        assert rep.p99_rel_err == float(np.quantile(rel, 0.99))
        assert type(rep.fraction_in_band) is float
        assert rep.fraction_in_band == float((band_err <= rep.band).mean())
        if band == 0.02:
            assert 0.0 < rep.fraction_in_band < 1.0
        if band == -1.0:
            assert rep.fraction_in_band == 0.0
    # an error equal to the band is in it
    assert evaluate(sk, exact, band=float(band_err.max())).fraction_in_band == 1.0


def test_evaluate_memory_peak():
    # the error matrices are built in place and the off-diagonal errors are
    # copied once: est, rel and that copy, plus all_pairs' own peak before
    n = 1500
    pts = np.random.default_rng(1).uniform(0.0, 80.0, size=(n, 10))
    sk = build_lp_sketch(ingest_array(pts, 2), 0.1)
    exact = pairwise_distances(pts, 2)
    tracemalloc.start()
    try:
        evaluate(sk, exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * n * n


def test_evaluate_rejects_mismatched_input():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(10, 3))
    sk = build_lp_sketch(ingest_array(pts, 2), 0.2)
    with pytest.raises(InputError):
        evaluate(sk, np.zeros((9, 9)))


def test_evaluate_euclidean_band_is_squared():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 10)) * 5
    sk = build_euclidean_sketch(ingest_array(pts, 2), 0.2, seed=11)
    rep = evaluate(sk, pairwise_distances(pts, 2))
    assert rep.flavor == "euclidean"
    assert rep.band == pytest.approx(48 * decode(sk).eps)
    assert rep.fraction_in_band == 1.0


def test_report_write(tmp_path):
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(8, 2)) * 9
    sk = build_lp_sketch(ingest_array(pts, 2), 0.25)
    rep = evaluate(sk, pairwise_distances(pts, 2))
    summary = tmp_path / "summary.json"
    pairs = tmp_path / "pairs.jsonl"
    rep.write(str(summary), str(pairs))
    loaded = json.loads(summary.read_text())
    assert loaded["n"] == 8 and loaded["fraction_in_band"] == 1.0
    lines = [json.loads(line) for line in pairs.read_text().splitlines()]
    assert len(lines) == 8 * 7 // 2
    assert all(rec["rel_err"] <= 1.0 for rec in lines)


# -- CLI ---------------------------------------------------------------------

def test_cli_end_to_end(tmp_path, capsys):
    pts = np.array([[0.0], [1.0], [10.0]])
    inp = tmp_path / "pts.txt"
    save_points_text(str(inp), pts)
    out = tmp_path / "s.rlts"

    assert cli.main(["sketch", "--input", str(inp), "--p", "2", "--eps", "0.1",
                     "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.main(["sketch", "--input", str(inp), "--p", "2", "--eps", "0.1",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == first  # byte-identical rebuild

    assert cli.main(["estimate", "--sketch", str(out), "--i", "0", "--j", "2"]) == 0
    est = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(est - 10.0) <= 4 * 0.1 * 10.0

    assert cli.main(["info", "--sketch", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["total_stored_bits"] == 8 * rep["file_bytes"]

    report = tmp_path / "rep.json"
    assert cli.main(["evaluate", "--sketch", str(out), "--input", str(inp),
                     "--report", str(report)]) == 0
    assert json.loads(report.read_text())["fraction_in_band"] == 1.0
    # an absurdly tight band trips the contract exit code
    assert cli.main(["evaluate", "--sketch", str(out), "--input", str(inp),
                     "--band", "1e-9"]) == 1


def test_cli_evaluate_walks_the_file_once(tmp_path, monkeypatch):
    # the CLI checks the input against the header alone; harness.evaluate
    # makes the only walk of the file
    import rltsketch.codec

    inp, out = tmp_path / "pts.txt", tmp_path / "s.rlts"
    save_points_text(str(inp), np.random.default_rng(6).normal(size=(12, 3)))
    assert cli.main(["sketch", "--input", str(inp), "--eps", "0.2", "--out", str(out)]) == 0
    walks = []
    read = rltsketch.codec._read

    def counting(data):
        walks.append(1)
        return read(data)

    monkeypatch.setattr(rltsketch.codec, "_read", counting)
    assert cli.main(["evaluate", "--sketch", str(out), "--input", str(inp)]) == 0
    assert len(walks) == 1


def test_cli_info_prints_bits_per_field(tmp_path, capsys):
    out = tmp_path / "s.rlts"
    out.write_bytes(build_lp_sketch(ingest_array(np.arange(12.0).reshape(-1, 2), 2), 0.25).data)
    assert cli.main(["info", "--sketch", str(out)]) == 0
    sections = json.loads(capsys.readouterr().out)["sections"]
    assert sections["etas"]["fields"].keys() == {"coarse", "residual"}
    for section in sections.values():
        assert sum(section["fields"].values()) == section["data_bits"]


@pytest.mark.parametrize("kind", ["version-1", "truncated", "crc-mismatch"])
def test_cli_rejects_a_corrupt_sketch(tmp_path, capsys, kind):
    from test_codec import V1_SKETCH

    pts = np.array([[0.0], [1.0], [10.0]])
    inp = tmp_path / "pts.txt"
    save_points_text(str(inp), pts)
    good = build_lp_sketch(ingest_array(pts, 2), 0.5).data
    bad = {
        "version-1": V1_SKETCH,
        "truncated": good[:len(good) - 3],
        "crc-mismatch": good[:-1] + bytes([good[-1] ^ 0x80]),
    }[kind]
    sketch = tmp_path / "bad.rlts"
    sketch.write_bytes(bad)
    for argv in (["info"], ["estimate", "--i", "0", "--j", "1"],
                 ["evaluate", "--input", str(inp)]):
        assert cli.main([argv[0], "--sketch", str(sketch), *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_strict_eps(tmp_path, capsys):
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(20, 3)) * 30
    inp = tmp_path / "pts.txt"
    save_points_text(str(inp), pts)
    out = tmp_path / "s.rlts"
    assert cli.main(["sketch", "--input", str(inp), "--eps", "0.4",
                     "--strict-eps", "--out", str(out)]) == 0
    with open(out, "rb") as fh:
        from rltsketch.codec import SketchBits
        sk = SketchBits(fh.read())
    exact = pairwise_distances(pts, 2)
    rep = evaluate(sk, exact, band=0.4)  # 4 * (eps/4)
    assert rep.fraction_in_band == 1.0


def test_cli_eps_too_small_to_quantize(tmp_path, capsys):
    # eps in (0, 1) below the file's eps resolution: an input error, not a
    # sketch with eps 0
    inp = tmp_path / "pts.txt"
    save_points_text(str(inp), np.random.default_rng(13).normal(size=(8, 2)))
    out = tmp_path / "s.rlts"
    assert cli.main(["sketch", "--input", str(inp), "--eps", "1e-12", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eps too small to quantize: 1e-12" in err
    assert not out.exists()


def test_cli_strict_eps_is_an_input_error_on_the_euclidean_flavor(tmp_path, capsys):
    # the Euclidean band is 48*eps on squared distances: dividing eps by 4
    # would not make it (1 +/- eps), and d' would grow sixteenfold
    inp = tmp_path / "pts.txt"
    save_points_text(str(inp), np.random.default_rng(13).normal(size=(20, 3)))
    out = tmp_path / "s.rlts"
    assert cli.main(["sketch", "--input", str(inp), "--eps", "0.4", "--euclidean",
                     "--strict-eps", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--strict-eps" in err and "--euclidean" in err
    assert not out.exists()


def test_cli_metric_pipeline(tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    assert cli.main(["gen-lb-general", "--n", "12", "--eps", "0.25",
                     "--seed", "4", "--out", str(mfile)]) == 0
    out = tmp_path / "m.rlts"
    assert cli.main(["sketch", "--input", str(mfile), "--format", "metric",
                     "--eps", "0.05", "--out", str(out)]) == 0
    assert cli.main(["evaluate", "--sketch", str(out), "--input", str(mfile),
                     "--format", "metric"]) == 0
    assert "fraction_in_band: 1.0" in capsys.readouterr().out


def test_cli_recover_pipeline(tmp_path, capsys):
    pfile = tmp_path / "lb.txt"
    assert cli.main(["gen-lb-euclidean", "--n", "16", "--eps", "0.5",
                     "--seed", "2", "--out", str(pfile)]) == 0
    out = tmp_path / "lb.rlts"
    assert cli.main(["sketch", "--input", str(pfile), "--eps", "0.0625",
                     "--euclidean", "--seed", "5", "--out", str(out)]) == 0
    bits_file = tmp_path / "bits.txt"
    assert cli.main(["recover", "--sketch", str(out), "--n", "16",
                     "--eps", "0.5", "--out", str(bits_file)]) == 0
    got = np.loadtxt(bits_file, dtype=int)
    want = planted_bits(load_points_text(str(pfile)))
    assert np.array_equal(got, want)
    capsys.readouterr()
    assert cli.main(["recover", "--sketch", str(out), "--n", "16", "--eps", "0.5"]) == 0
    rows = capsys.readouterr().out.split()
    assert np.array_equal([[int(b) for b in row] for row in rows], want)


def test_cli_input_errors(tmp_path, capsys):
    assert cli.main(["estimate", "--sketch", str(tmp_path / "nope"), "--i", "0", "--j", "1"]) == 2
    # a point index outside the sketch is bad input (2), not a contract
    # violation (1)
    inp, sk = tmp_path / "pts.txt", tmp_path / "s.rlts"
    save_points_text(str(inp), np.arange(20.0).reshape(-1, 1))
    assert cli.main(["sketch", "--input", str(inp), "--eps", "0.1", "--out", str(sk)]) == 0
    for i, j in (("0", "99"), ("-1", "3")):
        capsys.readouterr()
        assert cli.main(["estimate", "--sketch", str(sk), "--i", i, "--j", j]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # an input whose n or d is not the sketch's
    other = tmp_path / "other.txt"
    for pts, what in ((np.arange(19.0).reshape(-1, 1), "sketch holds 20 points"),
                      (np.arange(40.0).reshape(-1, 2), "sketch dimension 1")):
        save_points_text(str(other), pts)
        assert cli.main(["evaluate", "--sketch", str(sk), "--input", str(other)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {what}")
    assert cli.main(["sketch", "--input", str(inp), "--euclidean", "--p", "1", "--eps", "0.1",
                     "--out", str(tmp_path / "e.rlts")]) == 2
    assert capsys.readouterr().err.startswith("error: --euclidean requires p = 2")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 2\n")  # duplicates
    assert cli.main(["sketch", "--input", str(bad), "--eps", "0.1",
                     "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["gen-lb-euclidean", "--n", "4", "--eps", "0.3",
                     "--seed", "0", "--out", str(tmp_path / "y")]) == 2
    # argparse rejects a p below 1, naming --p, with its own exit code 2
    for p in ("0", "-3"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["sketch", "--input", str(inp), "--p", p, "--eps", "0.1",
                      "--out", str(tmp_path / "z")])
        assert exc.value.code == 2
        assert "--p" in capsys.readouterr().err
    # a one-point metric is rejected as a one-point text file is: its sketch
    # would answer no query
    mfile = tmp_path / "m.txt"
    mfile.write_text("1\n0\n")
    assert cli.main(["sketch", "--input", str(mfile), "--format", "metric",
                     "--eps", "0.1", "--out", str(tmp_path / "m.rlts")]) == 2
    assert capsys.readouterr().err.startswith("error: need at least two points")
    assert not (tmp_path / "m.rlts").exists()
    # n must be a count: 2.5 with 4 entries is not n = 2, -3 with 9 is not n = 3
    for n, entries in (("2.5", "0 1 1 0"), ("-3", "0 1 1 1 0 1 1 1 0")):
        mfile.write_text(f"{n}\n{entries}\n")
        assert cli.main(["sketch", "--input", str(mfile), "--format", "metric",
                         "--eps", "0.1", "--out", str(tmp_path / "m.rlts")]) == 2
        assert capsys.readouterr().err.startswith(f"error: metric file declares n = {n},")


@pytest.mark.parametrize("flag,value", [
    ("--band", "-1"), ("--band", "0"), ("--band", "nan"), ("--band", "inf"),
    ("--min-fraction", "nan"), ("--min-fraction", "-0.5"), ("--min-fraction", "1.5"),
])
def test_cli_evaluate_rejects_a_bad_band_or_fraction(tmp_path, capsys, flag, value):
    # argparse rejects these, naming the flag, with exit 2: no vacuous pass
    # and no contract violation
    inp, sk = tmp_path / "pts.txt", tmp_path / "s.rlts"
    save_points_text(str(inp), np.arange(12.0).reshape(-1, 1))
    assert cli.main(["sketch", "--input", str(inp), "--eps", "0.1", "--out", str(sk)]) == 0
    args = ["evaluate", "--sketch", str(sk), "--input", str(inp)]
    assert cli.main(args + ["--band", "0.5", "--min-fraction", "1"]) == 0
    assert cli.main(args + ["--min-fraction", "0"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(args + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_evaluate_rejects_pairs_without_report(tmp_path, capsys):
    # the per-pair file is written with the report: without --report the
    # command would exit 0 and write nothing. Rejected before the sketch is
    # read, so a missing sketch does not mask it
    pairs = tmp_path / "pairs.jsonl"
    assert cli.main(["evaluate", "--sketch", str(tmp_path / "none.rlts"),
                     "--input", str(tmp_path / "none.txt"), "--pairs", str(pairs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--pairs" in err and "--report" in err
    assert not pairs.exists()


def test_cli_rejects_binary_points_shorter_than_their_header(tmp_path, capsys):
    # the header claims 2^40 points of one coordinate (8 TiB), the file
    # holds one: rejected before any buffer is sized from the header
    inp = tmp_path / "pts.bin"
    inp.write_bytes((1 << 40).to_bytes(8, "little") + (1).to_bytes(8, "little") + bytes(8))
    assert cli.main(["sketch", "--input", str(inp), "--format", "binary", "--eps", "0.1",
                     "--out", str(tmp_path / "s.rlts")]) == 2
    assert capsys.readouterr().err.startswith("error: truncated binary point data")


@pytest.mark.parametrize("fmt,content,error", [
    ("metric", "", "empty metric file"),
    ("metric", "2\n0 1 1\n", "metric file should hold n then n^2 entries, got 3"),
    ("metric", "2\n0 1 x 0\n", "cannot parse metric file"),
    ("metric", "2\n1 1 1 0\n", "metric diagonal must be zero"),
    ("metric", "2\n0 nan nan 0\n", "metric contains non-finite entries"),
    ("metric", "2\n0 0.5 0.5 0\n", "metric distances must be >= 1"),
    ("text", "0 1\n2 x\n", "cannot parse point file"),
    ("binary", bytes(10), "truncated binary header"),
])
def test_cli_rejects_a_malformed_input_file(tmp_path, capsys, fmt, content, error):
    inp, out = tmp_path / "input", tmp_path / "s.rlts"
    if isinstance(content, bytes):
        inp.write_bytes(content)
    else:
        inp.write_text(content)
    assert cli.main(["sketch", "--input", str(inp), "--format", fmt, "--eps", "0.1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not out.exists()


@pytest.mark.parametrize("n,d", [(0, (1 << 64) - 1), (1 << 63, 0)])
def test_binary_points_declaring_an_empty_shape_are_an_input_error(tmp_path, n, d):
    # 8*n*d = 0 passes the size check; the shape is rejected before numpy
    # is asked to reshape into it
    inp = tmp_path / "pts.bin"
    inp.write_bytes(n.to_bytes(8, "little") + d.to_bytes(8, "little"))
    with pytest.raises(InputError, match=re.escape(f"{inp} declares shape ({n}, {d})")):
        load_points_binary(str(inp))

