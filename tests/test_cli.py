"""End-to-end runs of the command-line interface."""

import argparse
import json
import math
import re
import time
from pathlib import Path

import pytest
from biscount.cli import DEFAULTS, MODE_FLAG, READS, build_parser, main
from biscount.graphs import EXPANDER_CHECK_CAP, X_SIDE, load_graph, neighborhood_bits
from biscount.oracle import SWEEP_CAP, TABLE_CAP


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
    # oracle mode reads lambda alone, and echoes no other input
    assert "epsilon" not in cfg and "delta" not in cfg
    assert cfg["lambda"] is None and "alpha" not in cfg
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
        "--epsilon", "0.05", "--c1", "1.0",
    ])
    res = doc["result"]
    assert res["method"] == "general"
    assert math.exp(res["log_value"]) == pytest.approx(47, rel=0.05)
    assert res["notes"]["families"] == 2
    assert res["notes"] == {"families": 2, "nonempty_families": 1, "distinct_sets": 1, "ell": 8}
    # every D is exact, so the mode reads no failure budget and no seed
    assert set(doc["config"]) - BASE_KEYS == {"mode", "epsilon", "c1"}
    assert doc["seed"] is None


@pytest.mark.parametrize("flag,value", [("--delta", "0.05"), ("--seed", "9")])
def test_count_general_refuses_delta_and_seed(capsys, c8_file, flag, value):
    # count_general reads every D from the pool walk and samples none, so no
    # count mode reads a failure budget or a seed
    assert not any(flag[2:] in reads for reads in READS["count"].values())
    with pytest.raises(SystemExit) as exc:
        main(["count", "--graph", c8_file, "--mode", "general", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_count_general_exact(capsys, c8_file):
    doc = run_json(capsys, ["count", "--graph", c8_file, "--mode", "general-exact"])
    assert doc["result"]["decimal"] == "47"
    assert doc["result"]["exact"] is True


def strip_timing(doc):
    return {k: v for k, v in doc.items() if k != "timing_s"}


def test_count_replay_identical(tmp_path, c8_file):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["count", "--graph", c8_file, "--mode", "general", "--c1", "1.0", "--out"]
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


@pytest.mark.parametrize("argv", [
    ["count", "--mode", "expander"],
    ["count", "--mode", "general"],
    ["count", "--mode", "general-exact"],
    ["sample", "--mode", "expander"],
], ids=["count-expander", "count-general", "count-general-exact", "sample-expander"])
def test_lambda_rejected_where_ignored(c8_file, argv, capsys):
    # these modes are unweighted: echoing a fugacity they never used would
    # report an unweighted answer as a weighted one
    code = main([argv[0], "--graph", c8_file, *argv[1:], "--c1", "1.0", "--lambda", "1/2"])
    assert code == 2
    assert "drop --lambda" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["count", "sample"])
def test_lambda_accepted_by_oracle_mode(capsys, c8_file, subcommand):
    doc = run_json(capsys, [subcommand, "--graph", c8_file, "--lambda", "1/2"])
    assert doc["config"]["lambda"] == "1/2"


def test_sample_oracle_reports_no_sampler(capsys, c8_file):
    doc = run_json(capsys, ["sample", "--graph", c8_file, "--samples", "2"])
    assert "sampler" not in doc["config"]


@pytest.mark.parametrize("sampler", ["table", "sequential"])
def test_sample_oracle_rejects_sampler(c8_file, sampler, capsys):
    # the oracle draws from its exact table; neither expander sampler runs
    assert main(["sample", "--graph", c8_file, "--sampler", sampler]) == 2
    assert "--sampler applies to --mode expander and hardcore" in capsys.readouterr().err


# a valid value other than the default for every input, and its echo
GIVEN = {
    "lambda": ("1/3", "1/3"),
    "alpha": ("1/4", "1/4"),
    "epsilon": ("0.2", 0.2),
    "c1": ("1.0", 1.0),
    "seed": ("9", 9),
    "force_method": ("brute", "brute"),
    "samples": ("2", 2),
    "sampler": ("sequential", "sequential"),
    "family": ("small", "small"),
    "side": ("Y", "Y"),
    "cap": ("3", 3),
}
BASE_KEYS = {"subcommand", "graph", "fingerprint", "n_x", "n_y", "d"}
# flags the command line no longer has, which every mode refuses
RETIRED = ["delta", "float_lambda"]
TABLE = [(sub, mode) for sub, modes in READS.items() for mode in modes]


def table_argv(c8_file, subcommand, mode, *flags):
    argv = [subcommand, "--graph", c8_file, f"--{MODE_FLAG[subcommand]}", mode, *flags]
    if mode == "hardcore" and "--lambda" not in flags:
        argv += ["--lambda", "2"]
    return argv


def flag_of(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("name", sorted(DEFAULTS) + RETIRED)
@pytest.mark.parametrize("subcommand,mode", TABLE)
def test_table_flag_read_or_rejected(capsys, c8_file, subcommand, mode, name):
    # a flag the mode reads runs and is echoed; any other given flag exits 2,
    # by the table's check or by argparse when no mode of the subcommand reads it
    reads = READS[subcommand][mode]
    value = GIVEN[name][:1] if name in GIVEN else ()
    argv = table_argv(c8_file, subcommand, mode, flag_of(name), *value)
    if name in reads:
        assert run_json(capsys, argv)["config"][name] == GIVEN[name][1]
        return
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    flag = flag_of(name)
    if f"drop {flag}" not in err:
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("subcommand,mode", TABLE)
def test_table_config_echoes_exactly_what_the_mode_read(capsys, c8_file, subcommand, mode):
    doc = run_json(capsys, table_argv(c8_file, subcommand, mode))
    key = MODE_FLAG[subcommand]
    reads = READS[subcommand][mode]
    assert set(doc["config"]) == BASE_KEYS | {key} | set(reads)
    assert doc["config"][key] == mode
    for name in reads:
        if name != "lambda":
            assert doc["config"][name] == DEFAULTS[name]
    assert doc["seed"] == (DEFAULTS["seed"] if "seed" in reads else None)


@pytest.mark.parametrize("subcommand", sorted(READS))
def test_every_input_flag_is_read_by_some_mode(subcommand):
    # a flag that no mode reads cannot come back onto a subparser
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {
        a.dest for a in sub.choices[subcommand]._actions
        if a.dest not in ("help", "graph", "out", MODE_FLAG[subcommand])
    }
    read = set().union(*READS[subcommand].values())
    assert dests == read


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


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_verify_kp_rejects_cap_below_one(c8_file, cap, capsys):
    # a cap below 1 checks no polymer, which is no verification at all
    assert main(["verify-kp", "--graph", c8_file, "--c1", "1.0", f"--cap={cap}"]) == 2
    assert "--cap must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["oracle", "expander"])
def test_sample_rejects_zero_samples(c8_file, mode, capsys):
    assert main(["sample", "--graph", c8_file, "--mode", mode, "--samples", "0"]) == 2
    assert "--samples must be at least 1" in capsys.readouterr().err


def test_verify_kp_hardcore_requires_lambda(c8_file):
    assert main(["verify-kp", "--graph", c8_file, "--model", "hardcore"]) == 2


def test_certify_is_retired(c8_file, capsys):
    # the peeling-certificate census is a test of the lemma (tests/util.py),
    # not a route to any count, so the command line no longer offers it
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--graph", c8_file, "--t-max", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'certify'" in capsys.readouterr().err


def test_readme_command_block_lists_every_subcommand():
    # the README's command-line block shows each subcommand at least once
    # and no other, so a retired one cannot linger and a new one cannot go
    # undocumented
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {line.split()[1] for line in block.splitlines() if line.startswith("biscount ")}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(sub.choices)


def test_readme_inputs_table_lists_exactly_what_each_mode_reads():
    # the README's table of the inputs each mode reads is cli.READS, row for
    # row and flag for flag
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| subcommand | mode or model | inputs it reads |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[1:]
    listed = {}
    for row in rows:
        subcommand, mode, inputs = (cell.strip() for cell in row.strip("|").split("|"))
        flags = re.findall(r"`--([a-z0-9-]+)`", inputs)
        listed[subcommand.strip("`"), mode.strip("`")] = set(flags)
    assert listed == {
        (subcommand, mode): {name.replace("_", "-") for name in reads}
        for subcommand, modes in READS.items()
        for mode, reads in modes.items()
    }


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
                 "--lambda=-1/2", "--force-method", "brute"]) == 2


def test_count_general_rejects_degree_one(tmp_path):
    # the truncation size is undefined at d = 1: bad input, not a crash
    path = str(tmp_path / "k11.graph")
    assert main(["gen", "--kind", "complete", "--d", "1", "--out", path]) == 0
    assert main(["count", "--graph", path, "--mode", "general"]) == 2


def test_sample_sequential_on_degree_one(tmp_path, capsys):
    # the exact sequential sampler never truncates, so it needs no ell and
    # runs at d = 1, where choose_ell is undefined
    path = str(tmp_path / "k11.graph")
    assert main(["gen", "--kind", "complete", "--d", "1", "--out", path]) == 0
    doc = run_json(capsys, [
        "sample", "--graph", path, "--mode", "expander", "--sampler", "sequential",
        "--samples", "5", "--seed", "3",
    ])
    assert len(doc["result"]["samples"]) == 5
    for draw in doc["result"]["samples"]:
        assert not (draw["x"] and draw["y"])


def test_decimal_lambda_is_read_exactly_without_a_flag(capsys, c8_file):
    # one Fraction parser reads p/q and decimals alike, with no float between
    doc = run_json(capsys, [
        "count", "--graph", c8_file, "--mode", "hardcore", "--lambda", "0.3",
        "--force-method", "brute",
    ])
    assert doc["config"]["lambda"] == "3/10"
    assert doc["result"]["exact"] is True
    for text, want in (("1e-3", "1/1000"), (".5", "1/2")):
        doc = run_json(capsys, ["count", "--graph", c8_file, "--lambda", text])
        assert doc["config"]["lambda"] == want
    for text in ("inf", "nan", "0x10"):
        assert main(["count", "--graph", c8_file, "--lambda", text]) == 2
        assert f"bad lambda {text!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["count", "--graph", c8_file, "--lambda", "0.3", "--float-lambda"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --float-lambda" in capsys.readouterr().err


def test_exit_code_capacity(tmp_path, capsys):
    path = str(tmp_path / "c80.graph")
    assert main(["gen", "--kind", "cycle", "--m", "80", "--out", path]) == 0
    assert main(["count", "--graph", path]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("subcommand", ["count", "sample"])
def test_oracle_refuses_a_side_past_the_sweep_cap_from_the_header(tmp_path, capsys, subcommand):
    # a header-only file: read to its end it is malformed (exit 2), so exit
    # 3 shows the oracle modes refuse it from the header, before any edge
    path = tmp_path / "header.graph"
    n = SWEEP_CAP + 1
    path.write_text(f"c header only\np bis {n} {n} 3\n", encoding="utf-8")
    assert main([subcommand, "--graph", str(path), "--mode", "oracle"]) == 3
    assert f"bipartite sweep capped at nX={SWEEP_CAP}, got {n}" in capsys.readouterr().err
    # other modes, and a side at the cap, read the whole file; the oracle
    # sampler's table refuses such a side from the header as well
    assert main([subcommand, "--graph", str(path), "--mode", "expander"]) == 2
    path.write_text(f"p bis {SWEEP_CAP} {SWEEP_CAP} 3\n", encoding="utf-8")
    code = main([subcommand, "--graph", str(path), "--mode", "oracle"])
    err = capsys.readouterr().err
    if subcommand == "count":
        assert code == 2 and "expected" in err
    else:
        assert code == 3 and f"distribution table capped at {TABLE_CAP} sets" in err


def test_sample_oracle_refuses_a_table_past_its_cap_from_the_header(tmp_path, capsys):
    # every subset of one side is independent, so sides of n vertices give at
    # least 2^(n+1) - 1 sets: past TABLE_CAP at n = 21, not at n = 20
    assert (1 << 21) - 1 <= TABLE_CAP < (1 << 22) - 1
    path = tmp_path / "header.graph"
    path.write_text("p bis 21 21 3\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["sample", "--graph", str(path), "--mode", "oracle"]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"capped at {TABLE_CAP} sets, need at least {(1 << 22) - 1}" in capsys.readouterr().err
    # the oracle count tables nothing, and sides of 20 pass to the edges
    assert main(["count", "--graph", str(path), "--mode", "oracle"]) == 2
    assert "expected" in capsys.readouterr().err
    path.write_text("p bis 20 20 3\n", encoding="utf-8")
    assert main(["sample", "--graph", str(path), "--mode", "oracle"]) == 2
    assert "expected" in capsys.readouterr().err


def test_check_expander_refuses_a_side_past_its_cap_from_the_header(tmp_path, capsys):
    # header-only files, as above: exit 3 rather than 2 shows that either
    # side past the cap is refused from the header, before any edge
    path = tmp_path / "header.graph"
    n = EXPANDER_CHECK_CAP + 1
    for n_x, n_y in ((n, 3), (3, n)):
        path.write_text(f"c header only\np bis {n_x} {n_y} 3\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["check-expander", "--graph", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"expander check capped at side size {EXPANDER_CHECK_CAP}, got {n}" in err
    path.write_text(f"p bis {EXPANDER_CHECK_CAP} {EXPANDER_CHECK_CAP} 3\n", encoding="utf-8")
    assert main(["check-expander", "--graph", str(path)]) == 2
    assert "expected" in capsys.readouterr().err


def test_exit_code_internal_on_broken_peeling_identity(capsys, c8_file, monkeypatch):
    import biscount.expander

    real = biscount.expander.exact_xi

    def off_by_one_through_vertex_0(universe, m, mask):
        xi = real(universe, m, mask)
        return xi + 1 if mask & universe.holding[0] else xi

    monkeypatch.setattr(biscount.expander, "exact_xi", off_by_one_through_vertex_0)
    assert main(["sample", "--graph", c8_file, "--mode", "expander",
                 "--sampler", "sequential", "--c1", "1.0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "in _sequential_defect" in err
    assert "RuntimeError: peeling identity broken" in err
    assert err.rstrip().splitlines()[-1].startswith("internal error: RuntimeError")


def test_count_expander_empty_universe_is_not_certified(capsys, tmp_path):
    # torus [8,32] at the default c1 = 100: both expanding families are empty,
    # so the 2^(n+1) answer is reported without the certified flag
    path = tmp_path / "torus.graph"
    assert main(["gen", "--kind", "torus", "--dims", "8", "32", "--out", str(path)]) == 0
    doc = run_json(capsys, [
        "count", "--graph", str(path), "--mode", "expander", "--epsilon", "0.5",
    ])
    res = doc["result"]
    assert res["method"] == "expander-CE"
    assert res["certified"] is False
    assert res["flags"] == ["uncertified (empty universe)"]
