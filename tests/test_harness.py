import json
import math

import numpy as np
import pytest

from rltsketch import cli
from rltsketch.codec import build_lp_sketch, decode
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
    import rltsketch.estimator
    import rltsketch.harness

    calls = []

    def counting(sketch):
        calls.append(1)
        return decode(sketch)

    monkeypatch.setattr(rltsketch.harness, "decode", counting)
    monkeypatch.setattr(rltsketch.estimator, "decode", counting)
    pts = np.random.default_rng(4).normal(size=(12, 3))
    evaluate(build_lp_sketch(ingest_array(pts, 2), 0.2), pairwise_distances(pts, 2))
    assert len(calls) == 1


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
    assert rep.band == pytest.approx(48 * decode(sk).header_eps)
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


def test_cli_input_errors(tmp_path):
    assert cli.main(["estimate", "--sketch", str(tmp_path / "nope"), "--i", "0", "--j", "1"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 2\n")  # duplicates
    assert cli.main(["sketch", "--input", str(bad), "--eps", "0.1",
                     "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["gen-lb-euclidean", "--n", "4", "--eps", "0.3",
                     "--seed", "0", "--out", str(tmp_path / "y")]) == 2
