"""End-to-end runs of the command-line interface."""

import json
import math

import pytest
from biscount.cli import main
from biscount.graphs import X_SIDE, load_graph, neighborhood_bits


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def c8_file(tmp_path):
    path = tmp_path / "c8.graph"
    assert main(["gen", "--kind", "cycle", "--m", "8", "--out", str(path)]) == 0
    return str(path)


def test_gen_writes_loadable_file_with_label(c8_file):
    with open(c8_file, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("c cycle(m=8)\n")
    G = load_graph(text)
    assert (G.n_x, G.n_y, G.d) == (4, 4, 2)


def test_gen_stdout(capsys):
    assert main(["gen", "--kind", "complete", "--d", "3"]) == 0
    G = load_graph(capsys.readouterr().out)
    assert (G.n_x, G.d) == (3, 3)


def test_count_oracle(capsys, c8_file):
    doc = run_json(capsys, ["count", "--graph", c8_file])
    assert doc["schema"] == 1
    res = doc["result"]
    assert res["decimal"] == "47"
    assert res["exact"] is True
    assert res["method"] == "oracle"
    assert math.isclose(res["log_value"], math.log(47))
    cfg = doc["config"]
    assert cfg["subcommand"] == "count"
    assert cfg["mode"] == "oracle"
    assert cfg["epsilon"] == 0.1 and cfg["delta"] == 0.05
    assert cfg["lambda"] is None and cfg["alpha"] == "1/2"
    assert cfg["n_x"] == 4 and cfg["n_y"] == 4 and cfg["d"] == 2
    assert isinstance(cfg["fingerprint"], str) and cfg["fingerprint"]


def test_count_expander_auto_brute(capsys, c8_file):
    doc = run_json(capsys, ["count", "--graph", c8_file, "--mode", "expander"])
    assert doc["result"]["method"] == "brute"
    assert doc["result"]["decimal"] == "47"


def test_count_expander_forced(capsys, c8_file):
    doc = run_json(capsys, [
        "count", "--graph", c8_file, "--mode", "expander",
        "--force-method", "expander-CE", "--c1", "1.0",
    ])
    res = doc["result"]
    assert res["method"] == "expander-CE"
    assert res["kp_status"] == "failed-at-cap"
    assert res["certified"] is False
    assert "kp-failed-at-cap" in res["flags"]
    assert {t["side"] for t in res["side_breakdown"]} == {"X", "Y"}


def test_count_hardcore_brute(capsys, c8_file):
    doc = run_json(capsys, [
        "count", "--graph", c8_file, "--mode", "hardcore",
        "--lambda", "2", "--force-method", "brute",
    ])
    assert doc["result"]["decimal"] == "257"
    assert doc["config"]["lambda"] == "2"


def test_count_hardcore_requires_lambda(c8_file):
    assert main(["count", "--graph", c8_file, "--mode", "hardcore"]) == 2


def test_count_general(capsys, c8_file):
    doc = run_json(capsys, [
        "count", "--graph", c8_file, "--mode", "general",
        "--epsilon", "0.05", "--delta", "0.05", "--c1", "1.0", "--seed", "9",
    ])
    res = doc["result"]
    assert res["method"] == "general"
    assert math.exp(res["log_value"]) == pytest.approx(47, rel=0.05)
    assert res["notes"]["families"] == 2
    assert (res["notes"]["d_exact"], res["notes"]["d_sampled"]) == (1, 0)


def test_count_general_exact(capsys, c8_file):
    doc = run_json(capsys, ["count", "--graph", c8_file, "--mode", "general-exact"])
    assert doc["result"]["decimal"] == "47"
    assert doc["result"]["exact"] is True


def strip_timing(doc):
    return {k: v for k, v in doc.items() if k != "timing_s"}


def test_count_replay_identical(tmp_path, c8_file):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["count", "--graph", c8_file, "--mode", "general",
            "--c1", "1.0", "--seed", "5", "--out"]
    assert main(argv + [f1]) == 0
    assert main(argv + [f2]) == 0
    assert strip_timing(read_json(f1)) == strip_timing(read_json(f2))


def test_count_exact_replay_identical(tmp_path, c8_file):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["count", "--graph", c8_file, "--out"]
    assert main(argv + [f1]) == 0
    assert main(argv + [f2]) == 0
    assert strip_timing(read_json(f1)) == strip_timing(read_json(f2))


def test_sample_oracle_valid_and_reproducible(capsys, c8_file):
    argv = ["sample", "--graph", c8_file, "--samples", "5", "--seed", "3"]
    doc1 = run_json(capsys, argv)
    doc2 = run_json(capsys, argv)
    assert doc1["result"]["samples"] == doc2["result"]["samples"]
    with open(c8_file, encoding="utf-8") as fh:
        G = load_graph(fh.read())
    for s in doc1["result"]["samples"]:
        xb = sum(1 << v for v in s["x"])
        yb = sum(1 << v for v in s["y"])
        assert neighborhood_bits(G, X_SIDE, xb) & yb == 0


def test_sample_expander_table(capsys, c8_file):
    doc = run_json(capsys, [
        "sample", "--graph", c8_file, "--mode", "expander",
        "--samples", "4", "--seed", "1", "--c1", "1.0",
    ])
    assert len(doc["result"]["samples"]) == 4
    assert doc["config"]["sampler"] == "table"


def test_sample_hardcore_sequential(capsys, c8_file):
    doc = run_json(capsys, [
        "sample", "--graph", c8_file, "--mode", "hardcore", "--lambda", "1/2",
        "--sampler", "sequential", "--samples", "3", "--seed", "2", "--c1", "1.0",
    ])
    assert len(doc["result"]["samples"]) == 3


def test_verify_kp_failed_at_cap(capsys, c8_file):
    doc = run_json(capsys, [
        "verify-kp", "--graph", c8_file, "--c1", "1.0", "--cap", "4",
    ])
    res = doc["result"]
    assert res["all_pass"] is False
    assert res["status"] == "failed-at-cap"
    assert res["polymers_checked"] == 8
    assert res["failures"] == 8
    assert res["worst"]["lhs"] > res["worst"]["rhs"]


def test_verify_kp_vacuous_pass(tmp_path, capsys):
    path = str(tmp_path / "k44.graph")
    assert main(["gen", "--kind", "complete", "--d", "4", "--out", path]) == 0
    doc = run_json(capsys, ["verify-kp", "--graph", path, "--c1", "1.0"])
    res = doc["result"]
    assert res["all_pass"] is True
    assert res["status"] == "verified-to-cap"
    assert res["polymers_checked"] == 0


def test_verify_kp_hardcore_requires_lambda(c8_file):
    assert main(["verify-kp", "--graph", c8_file, "--model", "hardcore"]) == 2


def test_certify_census(capsys, c8_file):
    doc = run_json(capsys, ["certify", "--graph", c8_file, "--t-max", "2"])
    res = doc["result"]
    assert res["exact"] == 47
    rows = [(r["t"], r["certificates"], r["below"]) for r in res["census"]]
    assert rows == [(0, 1, 0), (1, 8, 1), (2, 20, 9)]
    assert all(r["total"] == 47 and r["matches_oracle"] for r in res["census"])


def test_check_expander_verified(capsys, c8_file):
    doc = run_json(capsys, ["check-expander", "--graph", c8_file])
    assert doc["result"]["status"] == "verified"
    assert doc["result"]["witness"] is None


def test_check_expander_falsified_with_witness(capsys, c8_file):
    doc = run_json(capsys, [
        "check-expander", "--graph", c8_file, "--alpha", "19/20",
    ])
    assert doc["result"]["status"] == "falsified"
    w = doc["result"]["witness"]
    assert w["side"] in ("X", "Y")
    assert len(w["vertices"]) >= 1


def test_exit_code_invalid_input(tmp_path, c8_file):
    assert main(["count", "--graph", str(tmp_path / "missing.graph")]) == 2
    assert main(["count", "--graph", c8_file, "--mode", "hardcore",
                 "--lambda", "abc"]) == 2
    assert main(["count", "--graph", c8_file, "--mode", "hardcore",
                 "--lambda", "0.3"]) == 2
    assert main(["count", "--graph", c8_file, "--mode", "hardcore",
                 "--lambda=-1/2", "--force-method", "brute"]) == 2


def test_count_general_rejects_degree_one(tmp_path):
    # the truncation size is undefined at d = 1: bad input, not a crash
    path = str(tmp_path / "k11.graph")
    assert main(["gen", "--kind", "complete", "--d", "1", "--out", path]) == 0
    assert main(["count", "--graph", path, "--mode", "general"]) == 2


def test_float_lambda_gate_opens(capsys, c8_file):
    doc = run_json(capsys, [
        "count", "--graph", c8_file, "--mode", "hardcore", "--lambda", "0.3",
        "--float-lambda", "--force-method", "brute",
    ])
    assert doc["config"]["lambda"] == "3/10"
    assert doc["result"]["exact"] is True


def test_exit_code_capacity(tmp_path, capsys):
    path = str(tmp_path / "c80.graph")
    assert main(["gen", "--kind", "cycle", "--m", "80", "--out", path]) == 0
    assert main(["count", "--graph", path]) == 3
    capsys.readouterr()


def test_exit_code_internal_on_broken_peeling_identity(capsys, c8_file, monkeypatch):
    import biscount.expander

    real = biscount.expander.exact_xi

    def off_by_one_through_vertex_0(universe, m):
        xi = real(universe, m)
        return xi + 1 if any(p.bits & 1 for p in universe) else xi

    monkeypatch.setattr(biscount.expander, "exact_xi", off_by_one_through_vertex_0)
    assert main(["sample", "--graph", c8_file, "--mode", "expander",
                 "--sampler", "sequential", "--c1", "1.0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "in _sequential_defect" in err
    assert "RuntimeError: peeling identity broken" in err
    assert err.rstrip().splitlines()[-1].startswith("internal error: RuntimeError")
