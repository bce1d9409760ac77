import hashlib
import re

import pytest

from amegraph.cli import main
from amegraph.witnesses import ame44_grouped, c5, quad_weighted
from support import parse_graph_line, save_graph


@pytest.fixture
def quad_file(tmp_path):
    path = tmp_path / "quad.graph"
    save_graph(quad_weighted(3), path)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    from amegraph.graph import graph_from_edges

    path = tmp_path / "c4.graph"
    save_graph(graph_from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]), path)
    return str(path)


def test_verify_ame_graph(quad_file, capsys):
    assert main(["verify", quad_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "AME yes"
    assert "CUT {1,2} RANK 2" in out


def test_verify_failing_graph(c4_file, capsys):
    assert main(["verify", c4_file]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "AME no"
    assert out[1] == "WITNESS 1,4"
    assert out[-1] == "CUT {1,4} RANK 1"


def test_verify_oracle(quad_file, capsys):
    assert main(["verify", quad_file, "--oracle"]) == 0
    assert "ORACLE agree" in capsys.readouterr().out



@pytest.mark.parametrize("p, line", [(1031, "ORACLE skipped (state too large)"),
                                     (1021, "ORACLE agree max|delta|=")])
def test_verify_oracle_skips_states_past_the_cap(tmp_path, capsys, p, line):
    # 1031^2 amplitudes exceed simulator.DEFAULT_CAP = 2^20 and 1021^2 do not
    from amegraph.graph import graph_from_edges

    path = tmp_path / "edge.graph"
    save_graph(graph_from_edges(p, 2, [(0, 1, 1)]), path)
    assert main(["verify", str(path), "--oracle"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(line)

def test_verify_full_records_small_cuts(quad_file, capsys):
    assert main(["verify", quad_file, "--full"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "CUT {1} RANK 1" in out and "CUT {1,2} RANK 2" in out


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    assert main(["verify", str(bad)]) == 2


@pytest.mark.parametrize("command, text", [
    (["verify"], "3 65537\n"),  # a 32 GiB adjacency
    (["verify"], "1000000000000000003 2\n"),  # a prime past exact int64 elimination
    (["verify"], "1000000000000000003 2\n1 2 99999999999999999999\n"),
    (["export", "--dot"], "3 725\n"),
])
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, command, text):
    path = tmp_path / "input.graph"
    path.write_text(text)
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_code_entries_past_int64_read_mod_p(tmp_path, capsys):
    # 10^20 + 1 = 2 mod 3: the file reads as its reduced twin
    outputs = []
    for entry in ("100000000000000000001", "2"):
        path = tmp_path / f"code{len(outputs)}.txt"
        path.write_text(f"3 2 1\n{entry} 1\n")
        code = main(["code2graph", str(path), "--code-file"])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][1].err == ""


def test_huge_prime_code_exits_2(capsys):
    assert main(["code2graph", "grs:1000000000000000003,4,2"]) == 2
    assert "too large for exact int64" in capsys.readouterr().err


def test_verify_missing_file():
    assert main(["verify", "/nonexistent/g.graph"]) == 2


def test_unknown_flag_exits_2(quad_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", quad_file, "--bogus"])
    assert exc.value.code == 2


def test_entropy_cut(c4_file, capsys):
    assert main(["entropy", c4_file, "--cut", "1,4", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("CUT {1,4} RANK 1 ENTROPY 1.000000")


@pytest.mark.parametrize("text, digest", [
    ("2 2\n", hashlib.sha256(b"CUT {1} RANK 0 ENTROPY 0.000000\n"
                             b"CUT {2} RANK 0 ENTROPY 0.000000\n").hexdigest()),
    ("3 4\n1 2 1\n", "52324343911089104c466cd029543f1a9f280efa78cdbf5d22e5cd8851c69387"),
], ids=["empty-pair", "one-edge"])
def test_entropy_oracle_prints_rank_zero_cuts_unsigned(tmp_path, capsys, text, digest):
    # the dense entropy of a rank-0 cut comes out as -0.0 or about -1e-16
    path = tmp_path / "g.graph"
    path.write_text(text)
    assert main(["entropy", str(path), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "ENTROPY -" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("cut,err", [
    ("0", "error: vertex 0 is not in [1, 4]\n"),
    ("1,9", "error: vertex 9 is not in [1, 4]\n"),
    ("1,1", "error: vertex 1 is given twice\n"),
], ids=["zero", "past-n", "repeat"])
def test_entropy_bad_cut_exits_2(quad_file, capsys, cut, err):
    assert main(["entropy", quad_file, "--cut", cut]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == err


def test_entropy_all_halves(quad_file, capsys):
    assert main(["entropy", quad_file]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_export_circuit(quad_file, capsys):
    assert main(["export", quad_file, "--circuit"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "PREP_ALL |0bar>"
    assert "CZ 2 4 ^2" in out


def test_export_dot(quad_file, capsys):
    assert main(["export", quad_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {") and '[label="2"]' in out


def test_export_requires_format(quad_file):
    with pytest.raises(SystemExit) as exc:
        main(["export", quad_file])
    assert exc.value.code == 2


def test_search_stats_line(capsys):
    assert main(["search", "--n", "4", "--p", "2", "--stats"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("examined=64 pruned=0 witnesses=0 rate=")
    assert out.endswith("exhaustive=yes")


def test_search_has_no_zero_row_layer(capsys):
    # graphs with an isolated vertex fail the predicate at the first cut
    # that holds it, so the search has no flag to prune them
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "3", "--p", "2", "--prune-zero-row"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--prune-zero-row" in captured.err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_search_has_no_workers_flag(workers, capsys):
    # the search is one serial pass, so it takes no worker count
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "5", "--p", "2", "--mode", "random", "--seed", "1", "--workers", workers])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--workers" in captured.err


def test_search_random_requires_seed(capsys):
    assert main(["search", "--n", "5", "--p", "2", "--mode", "random"]) == 2


# ids keep the names these cases had while the list also held two --workers cases
@pytest.mark.parametrize("flags", [["--samples", "-3"], ["--group-size", "0"]], ids=["flags0", "flags3"])
def test_search_refuses_invalid_sizes(flags, capsys):
    assert main(["search", "--n", "5", "--p", "2", "--mode", "random", "--seed", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_search_witness_file(tmp_path, capsys):
    out_path = tmp_path / "witnesses.txt"
    rc = main(["search", "--n", "5", "--p", "2", "--mode", "random",
               "--seed", "7", "--out", str(out_path), "--stats"])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# search n=5 p=2 mode=random")
    from amegraph.entanglement import is_ame

    assert is_ame(parse_graph_line(lines[1])).is_ame


def test_code2graph(capsys):
    assert main(["code2graph", "hamming433", "--matrix"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3 4 4"
    assert out[1] == "1 0 1 2 0 0 0 0"
    assert "3 4" in out  # graph header follows


def test_code2graph_beyond_codeword_enumeration(tmp_path, capsys):
    # 17^7 codewords, but only C(14, 7) = 3432 cuts of the reduced graph
    assert main(["code2graph", "grs:17,14,7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("17 14\n")
    target = tmp_path / "grs17.graph"
    target.write_text(out)
    assert main(["verify", str(target)]) == 0
    assert capsys.readouterr().out.startswith("AME yes")


@pytest.mark.parametrize("code,digest", [
    ("hamming433", "05f39bc57a6ef461da737003536ababc25cb985fbb997a184d217b3414baf132"),
    ("grs:7,6,3", "1f915564f08fd5d21335296f4a941a41236b97c94fb9d66be360dc2bab703ca6"),
    ("grs:13,12,6", "e2848570a6c7ab71366154bed8c91d0a43dd381046ca9f29c53abe06d7a69864"),
])
def test_code2graph_output_unchanged(code, digest, capsys):
    # SHA-256 of the expected output, byte for byte
    assert main(["code2graph", code]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_code2graph_matrix_certifies_once(monkeypatch, capsys):
    from amegraph import codes

    calls, real = [], codes.is_ame
    monkeypatch.setattr(codes, "is_ame", lambda g, **kw: calls.append(g) or real(g, **kw))
    assert main(["code2graph", "hamming433", "--matrix"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2a33ef6ae154780132b889d842db6b7022a80a8e457d2cbafbab3e69643b2ce1"
    )
    assert len(calls) == 1


def test_code2graph_rejects_non_ame_code(capsys):
    assert main(["code2graph", "grs:5,4,1"]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_code2graph_odd_n(tmp_path, capsys):
    # a GRS code with k = (n - 1)/2 gives an AME graph on an odd number of parties
    path = str(tmp_path / "ame7.graph")
    assert main(["code2graph", "grs:7,7,3", "--out", path]) == 0
    assert main(["verify", path, "--oracle"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "AME yes" and out[-1].startswith("ORACLE agree")
    assert len(out) == 2 + 35  # every 3|4 cut of the 7 vertices
    assert main(["code2graph", "grs:7,7,2"]) == 1
    assert capsys.readouterr().out == "FAIL [7,2]_7 code state is not AME: cut {1,2,3} has rank 2 < 3\n"


def test_code2graph_unknown(capsys):
    assert main(["code2graph", "mystery"]) == 2


def _masked(out: str) -> list[str]:
    # fidelities are float noise around 1; a distance's round-off prints as a bound
    return [re.sub(r"fidelity_min=\S+", "fidelity_min=#", line) for line in out.splitlines()]


def test_qss_threshold_audit(quad_file, capsys):
    rc = main(["qss", "--graph", quad_file, "--mode", "threshold",
               "--dealers", "1", "--seed", "3", "--secrets", "2"])
    assert rc == 0
    out = _masked(capsys.readouterr().out)
    assert out == [
        "AUTH {2,3} fidelity_min=# PASS",
        "AUTH {2,4} fidelity_min=# PASS",
        "AUTH {3,4} fidelity_min=# PASS",
        "FORBID {2} distance_max<=1e-12 PASS",
        "FORBID {3} distance_max<=1e-12 PASS",
        "FORBID {4} distance_max<=1e-12 PASS",
        "ALL PASS",
    ]


def test_qss_rejects_not_ame(c4_file, capsys):
    assert main(["qss", "--graph", c4_file, "--mode", "threshold",
                 "--dealers", "1", "--seed", "1"]) == 2


@pytest.mark.parametrize("flags,err", [
    (["--secrets", "0"], "error: need at least one secret, got 0\n"),
    (["--secrets", "-2"], "error: need at least one secret, got -2\n"),
    (["--dealers", "5"], "error: vertex 5 is not in [1, 4]\n"),
    (["--dealers", "0"], "error: vertex 0 is not in [1, 4]\n"),
], ids=["no-secret", "negative", "dealer-past-n", "dealer-zero"])
def test_qss_bad_arguments_exit_2(quad_file, capsys, flags, err):
    assert main(["qss", "--graph", quad_file, "--mode", "threshold", "--seed", "1"] + flags) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == err


def test_qss_ramp_audit(tmp_path, capsys):
    from amegraph.witnesses import ame62

    path = tmp_path / "a62.graph"
    save_graph(ame62(), path)
    rc = main(["qss", "--graph", str(path), "--mode", "ramp",
               "--dealers", "1,2", "--seed", "4", "--secrets", "2"])
    assert rc == 0
    assert _masked(capsys.readouterr().out) == [
        "AUTH {3,4,5} fidelity_min=# PASS",
        "AUTH {3,4,6} fidelity_min=# PASS",
        "AUTH {3,5,6} fidelity_min=# PASS",
        "AUTH {4,5,6} fidelity_min=# PASS",
        "FORBID {3} distance_max<=1e-12 PASS",
        "FORBID {4} distance_max<=1e-12 PASS",
        "FORBID {5} distance_max<=1e-12 PASS",
        "FORBID {6} distance_max<=1e-12 PASS",
        "ALL PASS",
    ]


def test_qss_over_the_cap_exits_2(tmp_path, capsys):
    # the threshold encoding holds 17^15 amplitudes: refused like entropy --oracle
    path = str(tmp_path / "grs17.graph")
    assert main(["code2graph", "grs:17,14,7", "--out", path]) == 0
    assert main(["qss", "--graph", path, "--mode", "threshold",
                 "--dealers", "1", "--seed", "7"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: 17^15 amplitudes exceed the cap of 1048576\n"
    assert main(["entropy", path, "--oracle"]) == 2
    assert capsys.readouterr().err == "error: 17^14 amplitudes exceed the cap of 1048576\n"


def test_composite_verify(tmp_path, capsys):
    save_graph(c5(2), tmp_path / "f2.graph")
    save_graph(c5(3), tmp_path / "f3.graph")
    manifest = tmp_path / "ame56.manifest"
    manifest.write_text("factor 2 f2.graph groupsize 1\nfactor 3 f3.graph groupsize 1\n")
    assert main(["composite", "verify", str(manifest)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "COMPOSITE n=5 d=6"
    assert out[-1] == "RESULT pass"


def test_composite_verify_grouped(tmp_path, capsys):
    g, gs = ame44_grouped()
    save_graph(g, tmp_path / "f4.graph")
    manifest = tmp_path / "ame44.manifest"
    manifest.write_text("factor 2 f4.graph groupsize 2\n")
    assert main(["composite", "verify", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "UNGROUPED AME no" in out
    assert "UNGROUPED WITNESS" in out


def test_repro_single_criterion(capsys):
    assert main(["repro", "--criterion", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "PASS 5 dimension-discriminator: rank mod 5 = 2, rank mod 7 = 1"


def test_repro_quick_skips_seven_qubits(capsys):
    assert main(["repro", "--criterion", "3", "--quick"]) == 0
    assert capsys.readouterr().out.startswith("SKIP 3")


def test_repro_criterion_out_of_range(capsys):
    assert main(["repro", "--criterion", "13"]) == 2


def test_repro_seven_qubit_line_has_no_wall_clock_rate(monkeypatch):
    # elapsed= is the line's only wall-clock field; the soft gate still reads the rate
    from amegraph import repro, search

    for elapsed, warned in ((0.5, False), (200.0, True)):  # 2^21 graphs in 200 s: 629,146/min
        result = search.SearchResult([], 2_097_152, 0, elapsed, True)
        monkeypatch.setattr(search, "enumerate_graphs", lambda spec, result=result: result)
        check = repro.check_no_ame_7_qubits()
        assert check.detail == f"examined=2097152 witnesses=0 elapsed={elapsed:.1f}s"
        assert bool(check.warnings) == warned and (check.status == "PASS") != warned


@pytest.mark.parametrize("dist, shown, status", [
    (5.27e-16, "distance<=1e-12", "PASS"), (1e-12, "distance<=1e-12", "PASS"),
    (3.4e-11, "distance=3.40e-11", "PASS"), (2e-9, "distance=2.00e-09", "FAIL"),
])
def test_repro_qss_lines_print_round_off_as_its_bound(monkeypatch, dist, shown, status):
    # checks 9 and 10: a forbidden set's round-off distance prints as the
    # 1e-12 bound, a larger one as before; the 1e-9 gate is unchanged
    from amegraph import qss, repro

    lines = [("AUTH", (0, 1), 1.0), ("FORBID", (2,), dist)]
    monkeypatch.setattr(qss, "audit", lambda scheme, secrets, rng: lines)
    check = repro._audit_check(9, "threshold-qss", 1, [None], 60)
    assert check.status == status
    assert check.detail == f"min fidelity=1.000000000000 max forbidden {shown} elapsed=0.0s"


def test_search_grouped_cli(tmp_path, capsys):
    rc = main(["search", "--n", "4", "--p", "2", "--group-size", "2",
               "--mode", "random", "--seed", "2024", "--stats"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("2 8 ")  # one witness line: p=2, eight vertices
    assert out[-1].endswith("exhaustive=no")


def test_code2graph_out_file(tmp_path, capsys):
    target = tmp_path / "g.graph"
    assert main(["code2graph", "grs:5,4,2", "--out", str(target)]) == 0
    from amegraph.entanglement import is_ame
    from amegraph.graph import load_graph

    assert is_ame(load_graph(target)).is_ame


def test_code2graph_matrix_with_out_prints_the_matrix_alone(tmp_path, capsys):
    target = tmp_path / "g.graph"
    assert main(["code2graph", "grs:5,4,2", "--matrix"]) == 0
    both = capsys.readouterr().out
    assert main(["code2graph", "grs:5,4,2", "--matrix", "--out", str(target)]) == 0
    matrix = capsys.readouterr().out
    assert matrix and both == matrix + target.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [["search", "--n", "3", "--p", "2"], ["code2graph", "grs:5,4,2"],
                                  ["code2graph", "grs:5,4,2", "--matrix"]])
def test_unwritable_out_exits_2_without_traceback(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {str(target)!r}: ")
    assert len(captured.err.splitlines()) == 1
    assert not target.parent.exists()


def test_refused_search_creates_no_out_file(tmp_path, capsys):
    target = tmp_path / "x"
    assert main(["search", "--n", "7", "--p", "3", "--out", str(target)]) == 2
    assert "exceed the budget" in capsys.readouterr().err
    assert not target.exists()


def test_search_prints_weight_256_first(capsys):
    # witnesses are ordered by the bytes of their little-endian int64
    # adjacency, so at p = 257 weight 256 (bytes 00 01) precedes 1
    assert main(["search", "--n", "2", "--p", "257"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 256
    assert out[:3] == ["257 2 1 2 256", "257 2 1 2 1", "257 2 1 2 2"]
