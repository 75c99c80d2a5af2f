import ast
import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from hppcheck.certificate import shipped_store_dir
from hppcheck import cli, sos_search
from hppcheck.cli import build_parser, main
from hppcheck.matroid import Matroid, matroid_from_text, matroid_to_text
from hppcheck.polynomial import parse_polynomial

from conftest import FANO_LINES, count_jacobi

SRC = Path(__file__).resolve().parents[1] / "src"
FLOAT_LAYERS = ("sampler", "sos_search")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_catalog_lists_entries(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for name in ("U_2_4", "F7m4", "V8", "nP_d1"):
            assert name in out

    def test_bases_roundtrips(self, capsys):
        code, out, _ = run(capsys, "bases", "V8")
        assert code == 0
        M = matroid_from_text(out)
        assert (M.m, M.rank, M.num_bases()) == (8, 4, 65)

    def test_minor_and_dual(self, capsys):
        code, out, _ = run(capsys, "minor", "U_2_4", "del", "4")
        assert code == 0
        assert matroid_from_text(out).num_bases() == 3
        code, out, _ = run(capsys, "dual", "U_2_4")
        assert code == 0
        assert matroid_from_text(out).rank == 2

    def test_minor_degenerate_exit(self, capsys):
        code, _, err = run(capsys, "minor", "nP_d1", "con", "1")
        assert code == 4
        assert "loop" in err

    def test_iso_identity(self, capsys):
        code, out, _ = run(capsys, "iso", "U_2_4", "U_2_4")
        assert code == 0
        assert "1->1" in out

    def test_iso_not_isomorphic(self, capsys):
        code, out, _ = run(capsys, "iso", "U_2_4", "U_3_4")
        assert code == 2
        assert "not isomorphic" in out


class TestPolynomialCommands:
    def test_rdiff_output_parses(self, capsys):
        code, out, _ = run(capsys, "rdiff", "U_2_4", "1", "2")
        assert code == 0
        p = parse_polynomial(out.strip())
        assert p == parse_polynomial("y3*y3 + y3*y4 + y4*y4")

    def test_disc_output(self, capsys):
        code, out, _ = run(capsys, "disc", "U_2_4", "1", "2", "3")
        assert code == 0
        assert out.strip() == "-3*y4*y4"

    def test_polyfile_input(self, capsys, tmp_path):
        path = tmp_path / "z.poly"
        path.write_text("y1*y2 + y1*y3 + y2*y3")
        code, out, _ = run(capsys, "rdiff", str(path), "1", "2")
        assert code == 0
        assert out.strip() == "y3*y3"


class TestVerifyCert:
    def test_shipped_pass(self, capsys):
        path = shipped_store_dir() / "v8_12.cert"
        code, out, _ = run(capsys, "verify-cert", str(path))
        assert code == 0
        assert "PASS" in out

    def test_fail_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.cert"
        bad.write_text(json.dumps({
            "matroid": "U_2_4", "pair": [1, 2],
            "terms": [{"weight": "1", "poly": "y3"}]}))
        code, out, _ = run(capsys, "verify-cert", str(bad))
        assert code == 1
        assert "FAIL" in out

    def test_unknown_matroid_not_found(self, capsys, tmp_path):
        c = tmp_path / "x.cert"
        c.write_text(json.dumps({
            "matroid": "M999", "pair": [1, 2],
            "terms": [{"weight": "1", "poly": "y3"}]}))
        code, _, err = run(capsys, "verify-cert", str(c))
        assert code == 2

    def test_unknown_target_is_a_usage_error(self, capsys):
        # once a quoted KeyError repr without "error:", exit 2
        path = shipped_store_dir() / "v8_12.cert"
        code, out, err = run(capsys, "verify-cert", str(path),
                             "--target", "nosuch")
        assert code == 3 and out == ""
        assert err.startswith("error:") and "'nosuch'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", [(), ("--target", "U_2_4")],
                             ids=["named", "target"])
    def test_pair_outside_ground_set_is_a_usage_error(self, capsys, tmp_path,
                                                      target):
        # once exit 4, the computation-error code; `rdiff U_2_4 1 9` exits 3
        c = tmp_path / "outside.cert"
        c.write_text(json.dumps({
            "matroid": "U_2_4", "pair": [1, 9],
            "terms": [{"weight": "1", "poly": "y3"}]}))
        code, out, err = run(capsys, "verify-cert", str(c), *target)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "element 9" in err
        assert err.count("\n") == 1

    def test_inline_target(self, capsys, tmp_path):
        c = tmp_path / "inline.cert"
        c.write_text(json.dumps({
            "target": "y3*y3",
            "terms": [{"weight": "1", "poly": "y3"}]}))
        code, out, _ = run(capsys, "verify-cert", str(c))
        assert code == 0 and "PASS" in out


class TestCheckHpp:
    def test_v8_proved(self, capsys):
        code, out, _ = run(capsys, "check-hpp", "V8")
        assert code == 0
        assert "verdict: PROVED" in out

    def test_np_inconclusive(self, capsys):
        code, out, _ = run(capsys, "check-hpp", "nP")
        assert code == 2
        assert "verdict: INCONCLUSIVE" in out

    def test_structured_output_parses(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "check-hpp", "W3p", "--format",
                           "structured", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["verdict"] == "PROVED"
        assert payload["matroid"] == "W3p"

    def test_single_basis_proved(self, capsys):
        code, out, _ = run(capsys, "check-hpp", "U_3_3")
        assert code == 0
        assert "verdict: PROVED" in out

    def test_report_that_does_not_replay_is_an_error(self, capsys,
                                                      monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "replay_report", lambda *args: False)
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "check-hpp", "V8", "--out", str(out_path))
        assert code == 4
        assert "verdict:" not in out and not out_path.exists()
        assert err.startswith("error:") and err.count("\n") == 1

    def test_custom_cert_dir_empty(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-hpp", "F7m4", "--certs",
                           str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("name,pair,poly,shipped,code", [
        ("V8", [1, 99], "y1", True, 0),
        ("V8", [1, 99], "y1", False, 2),
        ("nP_d1", [1, 2], "0", False, 2),
    ], ids=["outside_ground_set_with_shipped", "outside_ground_set_alone",
            "loop_pair"])
    def test_store_pair_outside_the_core_is_no_evidence(self, capsys, tmp_path,
                                                        name, pair, poly,
                                                        shipped, code):
        # these once ended in "error: variable index 99 outside ground set
        # 1..8" (exit 4) and "error: 1" (exit 3); element 1 of nP_d1 is a
        # loop, so its difference at (1, 2) is 0 and the certificate verifies
        if shipped:
            for path in shipped_store_dir().glob("*.cert"):
                (tmp_path / path.name).write_text(path.read_text())
        (tmp_path / "bad.cert").write_text(json.dumps(
            {"matroid": name, "pair": pair,
             "terms": [{"weight": "1", "poly": poly}]}))
        rc, out, err = run(capsys, "check-hpp", name, "--certs", str(tmp_path))
        assert (rc, err) == (code, "")
        assert f"verdict: {'PROVED' if code == 0 else 'INCONCLUSIVE'}" in out

    @pytest.mark.parametrize("refute", [False, True], ids=["plain", "refute"])
    def test_f7_search_gives_up_at_stalls(self, capsys, tmp_path, monkeypatch,
                                          refute):
        # F7 lacks the half-plane property, so no pair has a certificate;
        # each of its 21 pair searches gives up at its stall
        calls = count_jacobi(monkeypatch)
        path = tmp_path / "F7.json"
        path.write_text(matroid_to_text(Matroid.from_nonbases(7, 3,
                                                               FANO_LINES)))
        code, out, _ = run(capsys, "check-hpp", str(path), "--search",
                           *(["--refute"] if refute else []))
        assert code == (1 if refute else 2)
        assert ("seed: 0" in out) == refute
        assert calls[0] <= 21 * (sos_search.STALL_ITERATIONS + 1)


class TestSampleAndSearch:
    def test_sample_prints_seed(self, capsys):
        code, out, _ = run(capsys, "sample", "U_2_4", "--mode",
                           "strong-rayleigh", "--trials", "500",
                           "--no-descent", "--seed", "9")
        assert code == 0
        assert "seed: 9" in out
        assert "no counterexample" in out

    def test_sample_hpp_evidence(self, capsys):
        code, out, _ = run(capsys, "sample", "U_1_2", "--mode", "hpp",
                           "--trials", "300")
        assert code == 0
        assert "min |Z|" in out and "no claim" in out

    def test_sample_zero_polynomial_is_refuted(self, capsys, tmp_path):
        poly = tmp_path / "zero.poly"
        poly.write_text("0*y1 + 0*y2")
        code, out, _ = run(capsys, "sample", str(poly), "--mode", "hpp",
                           "--trials", "100")
        assert code == 1
        assert "exact zero found" in out

    def test_sos_search_writes_certificate(self, capsys, tmp_path):
        poly = tmp_path / "t.poly"
        poly.write_text("y3*y3 + y3*y4 + y4*y4")
        out_file = tmp_path / "t.cert"
        code, out, _ = run(capsys, "sos-search", str(poly), "--out",
                           str(out_file))
        assert code == 0
        # the search draws no random numbers, so there is no seed to print
        assert "seed:" not in out
        payload = json.loads(out_file.read_text())
        assert payload["terms"]

    def test_sos_search_infeasible(self, capsys, tmp_path):
        poly = tmp_path / "neg.poly"
        poly.write_text("-1*y3*y3")
        code, _, err = run(capsys, "sos-search", str(poly))
        assert code == 1
        assert "infeasible" in err

    @pytest.mark.parametrize("text", ["y1*y1*y2 + y3", "y1*y2*y3",
                                      "y1*y1*y1*y1", "0*y1 + 0*y2"],
                             ids=["inhomogeneous", "odd_degree",
                                  "variable_degree_4", "zero"])
    def test_sos_search_unsuitable_target_is_a_usage_error(self, capsys,
                                                           tmp_path, text):
        # these once exited 1, the FAIL code, as if no Gram matrix existed
        poly = tmp_path / "t.poly"
        poly.write_text(text)
        code, out, err = run(capsys, "sos-search", str(poly))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_sos_search_shape_comes_before_signs(self, capsys, tmp_path):
        # a negative pure square would be infeasible (exit 1), but the
        # variable of degree 3 makes the target unsuitable first
        poly = tmp_path / "t.poly"
        poly.write_text("-1*y1*y1*y2*y2 + y3*y3*y3*y4")
        code, out, err = run(capsys, "sos-search", str(poly))
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_sos_search_without_squares_is_infeasible(self, capsys, tmp_path):
        # no square of a basis monomial occurs in y3*y4, so the Gram
        # problem has an empty basis
        poly = tmp_path / "cross.poly"
        poly.write_text("y3*y4")
        code, _, err = run(capsys, "sos-search", str(poly))
        assert code == 1
        assert err.startswith("infeasible:") and err.count("\n") == 1

    def test_sample_box_in_exponent_notation(self, capsys):
        argv = ("sample", "U_2_3", "--mode", "strong-rayleigh",
                "--trials", "2000", "--box")
        code, out, err = run(capsys, *argv, "-1e3", "1e3")
        assert code == 0 and err == ""
        assert (code, out) == run(capsys, *argv, "-1000", "1000")[:2]


class TestUsageAndHelp:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 3

    def test_unknown_flag_rejected(self, capsys):
        assert run(capsys, "catalog", "--bogus")[0] == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify-cert", "/nonexistent.cert")
        assert code == 3

    def test_unknown_matroid(self, capsys):
        assert run(capsys, "bases", "NOPE")[0] == 3
        # a U_<r>_<m> name outside 0 < r <= m once exited 4
        for name in ("U_x_3", "U_0_3", "U_4_3"):
            code, out, err = run(capsys, "check-hpp", name)
            assert code == 3 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("minor", "U_2_4", "del", "9"),
                                      ("rdiff", "U_2_4", "1", "1"),
                                      ("rdiff", "U_2_4", "1", "9"),
                                      ("disc", "U_2_4", "1", "2", "2"),
                                      ("disc", "U_2_4", "1", "2", "9"),
                                      ("minor", "U_1_1", "con", "1"),
                                      ("minor", "U_1_1", "del", "1")])
    def test_bad_element_is_a_usage_error(self, capsys, argv):
        # these once exited 4, the computation-error code; `minor U_1_1 con
        # 1` once exited 0 with a ground set that `bases` refuses
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("disc", "1", "2", "3"),
                                      ("sample", "--mode", "strong-rayleigh"),
                                      ("sample", "--mode", "rayleigh")])
    def test_non_multiaffine_polynomial_is_a_usage_error(self, capsys, tmp_path,
                                                          argv):
        # these once exited 4; `sample` printed its seed first
        path = tmp_path / "square.poly"
        path.write_text("y1*y1*y2 + y3\n")
        command, *rest = argv
        code, out, err = run(capsys, command, str(path), *rest)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "multiaffine" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("check-hpp", "U_13_26"),
                                      ("bases", "U_10_20"),
                                      ("bases", "U_1001_1001"),
                                      ("rdiff", "U_2_100000000000", "1", "2")])
    def test_too_large_uniform_name_is_a_usage_error(self, capsys, argv):
        # refused before a subset is listed: U_13_26 has 10,400,600 bases
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "more than the 1000" in err
        assert err.count("\n") == 1

    def test_null_basis_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "null.json"
        path.write_text('{"m": 3, "rank": 1, "bases": [[1], null]}')
        code, _, err = run(capsys, "bases", str(path))
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("text", [
        '{"m": 14, "rank": 7, "nonbases": []}',
        '{"m": 14, "rank": 7, "bases": ' + json.dumps(
            [list(c) for c in combinations(range(1, 15), 7)]) + '}',
        '{"m": 40, "rank": 20, "nonbases": []}',
    ], ids=["3432_nonbases", "3432_bases", "huge_nonbases"])
    def test_too_many_bases_is_a_usage_error(self, capsys, tmp_path, text):
        # basis exchange is checked in time quadratic in the bases: 3,432
        # once took about 15 s, and larger files never ended
        path = tmp_path / "big.json"
        path.write_text(text)
        code, out, err = run(capsys, "bases", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: invalid matroid file:")
        assert "more than the 1000" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"m": 3, "rank": 1, "bases": [["a"]]}',           # not an integer
        '{"m": 3, "rank": 1, "bases": [[4]]}',             # outside 1..m
        '{"m": 4, "rank": 2, "bases": [[1, 2], [3, 4]]}',  # no basis exchange
        '{"m": 3, "rank": 2, "bases": [[1, 2.5]]}',        # once truncated to 2
        '{"m": 3, "rank": 1, "bases": [[true]]}',          # once read as 1
        '{"m": 3.0, "rank": 1, "bases": [[1]]}',           # float m
        '{"m": 3, "rank": true, "bases": [[1]]}',          # bool rank
    ], ids=["non_integer", "outside_ground_set", "basis_exchange",
            "float_element", "bool_element", "float_m", "bool_rank"])
    def test_malformed_subsets_are_a_parse_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "bases", str(path))
        assert code == 3
        assert "invalid matroid file" in err

    @pytest.mark.parametrize("fields", [
        {"pair": 5},
        {"target": 7},
        {"matroid": 5, "pair": [1, 2]},
        {"pair": ["a", 2]},
        {"pair": [1, 1]},
        {"target": "y3 *"},
        {"terms": [{"weight": "1", "poly": "*".join(["y1"] * 256)}]},
    ], ids=["pair_not_a_list", "target_not_text", "matroid_not_text",
            "pair_not_integers", "pair_repeated", "target_unparsable",
            "term_exponent_above_255"])
    def test_malformed_certificate_is_a_parse_error(self, capsys, tmp_path,
                                                    fields):
        # the first three once ended in a traceback with exit 1, the
        # FAIL code, and a non-integer pair in exit 4
        path = tmp_path / "bad.cert"
        path.write_text(json.dumps(
            {"terms": [{"weight": "1", "poly": "y3"}], **fields}))
        code, out, err = run(capsys, "verify-cert", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "bad.cert" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", ["duplicate_key", "missing_dir",
                                      "missing_env_dir"])
    def test_bad_certificate_store_is_a_usage_error(self, capsys, tmp_path,
                                                    monkeypatch, case):
        # a missing directory once loaded as an empty store (exit 2) and a
        # duplicate key exited 4; an existing empty directory stays exit 2
        argv = ["check-hpp", "F7m4"]
        if case == "duplicate_key":
            shipped = (shipped_store_dir() / "f7m4_12.cert").read_text()
            (tmp_path / "a.cert").write_text(shipped)
            (tmp_path / "b.cert").write_text(shipped)
            argv += ["--certs", str(tmp_path)]
        elif case == "missing_dir":
            argv += ["--certs", str(tmp_path / "absent")]
        else:
            monkeypatch.setenv("HPPCHECK_CERT_DIR", str(tmp_path / "absent"))
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_denominator_weight_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "zero.cert"
        path.write_text(json.dumps({
            "target": "y3*y3", "terms": [{"weight": "1/0", "poly": "y3"}]}))
        code, _, err = run(capsys, "verify-cert", str(path))
        assert code == 3
        assert "term 1" in err

    @pytest.mark.parametrize("bound", ["0", "-4", "65536"])
    def test_denominator_bound_flag_is_a_usage_error(self, capsys, tmp_path,
                                                     bound):
        # the search's denominator bounds are fixed; a bound <= 0 once
        # made the search loop forever
        poly = tmp_path / "u24.poly"
        poly.write_text("y3*y3 + y3*y4 + y4*y4")
        code, out, err = run(capsys, "sos-search", str(poly),
                             "--denominator-bound", bound)
        assert code == 3
        assert out == "" and "--denominator-bound" in err

    @pytest.mark.parametrize("flag,value", [
        ("--tolerance", "1e-9"), ("--max-iterations", "300")])
    def test_search_tuning_flags_are_a_usage_error(self, capsys, tmp_path,
                                                   flag, value):
        # the search has one tolerance and one iteration budget, both fixed
        poly = tmp_path / "u24.poly"
        poly.write_text("y3*y3 + y3*y4 + y4*y4")
        code, out, err = run(capsys, "sos-search", str(poly), flag, value)
        assert code == 3
        assert out == "" and flag in err

    @pytest.mark.parametrize("flags", [
        ["--mode", "strong-rayleigh", "--box", "nan", "1"],
        ["--mode", "rayleigh", "--box", "inf", "inf"],
        ["--mode", "hpp", "--box", "1", "nan"],
        ["--mode", "strong-rayleigh", "--box", "5", "1"],
        ["--mode", "rayleigh", "--box", "-1", "1"],
        ["--mode", "strong-rayleigh", "--trials", "0"],
        ["--mode", "strong-rayleigh", "--box", "-1e308", "1e308"],
        ["--mode", "hpp", "--box", "0", "1e308"],
        ["--mode", "stable", "--box", "1", "1.5e308"],
    ], ids=["nan_lo", "inf_box", "hpp_nan_hi", "lo_above_hi",
            "rayleigh_nonpositive", "zero_trials", "range_overflows",
            "hpp_range_overflows", "stable_range_overflows"])
    def test_bad_sample_flags_are_a_usage_error(self, capsys, flags):
        # a non-finite box once ended in an OverflowError traceback with
        # exit 1, the REFUTED code, and a box of finite bounds whose range
        # overflows a float in an internal OverflowError, exit 4
        code, out, err = run(capsys, "sample", "U_2_3", *flags)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["rdiff", "{poly}", "1", "2"], ["disc", "{poly}", "1", "2", "3"],
        ["sos-search", "{poly}"], ["sample", "{poly}", "--mode", "hpp"],
        ["verify-cert", "{cert}", "--target", "{poly}"],
    ], ids=["rdiff", "disc", "sos-search", "sample", "verify-cert"])
    @pytest.mark.parametrize("text", ["y1*y2 + y3^2", "y0",
                                      "*".join(["y1"] * 256) + " + y2*y3"],
                             ids=["caret", "y0", "exponent_above_255"])
    def test_malformed_polynomial_file_is_a_parse_error(self, capsys, tmp_path,
                                                        argv, text):
        # these once exited 4, the computation-error code
        poly = tmp_path / "bad.poly"
        poly.write_text(text + "\n")
        cert = shipped_store_dir() / "f7m4_12.cert"
        code, out, err = run(capsys, *(a.format(poly=poly, cert=cert)
                                       for a in argv))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["rdiff", "{file}", "1", "2"],
                                      ["disc", "{file}", "1", "2", "3"],
                                      ["sos-search", "{file}"]],
                             ids=["rdiff", "disc", "sos-search"])
    def test_matroid_file_where_a_polynomial_is_expected(self, capsys,
                                                         tmp_path, argv):
        # once only "error: unexpected character '{' at position 0"
        path = tmp_path / "v8.json"
        code, out, _ = run(capsys, "bases", "V8")
        assert code == 0
        path.write_text(out)
        code, out, err = run(capsys, *(a.format(file=path) for a in argv))
        assert code == 3 and out == ""
        assert err == (f"error: {path}: expected a catalog name or a "
                       "polynomial file: unexpected character '{' at "
                       "position 0\n")

    @pytest.mark.parametrize("cmd", ["catalog", "bases", "minor", "dual",
                                     "iso", "rdiff", "disc", "verify-cert",
                                     "check-hpp", "sos-search", "sample"])
    def test_help_documents_exit_codes(self, capsys, cmd):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([cmd, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out


def test_unexpected_exception_is_one_line_exit_4(capsys, monkeypatch):
    # an uncaught traceback would exit 1, the REFUTED/FAIL code
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "rayleigh_diff", broken)
    code, out, err = run(capsys, "rdiff", "U_2_4", "1", "2")
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


# -- the cold path: only the float layers load numpy ----------------------


def _import_time_imports(path: Path) -> set[str]:
    """Dotted names of the modules `path` imports when it is itself imported:
    every import statement outside a function body."""
    names = set()
    todo = list(ast.parse(path.read_text(), str(path)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["hppcheck" if node.level else "",
                                            node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_only_float_layers_import_numpy_at_module_level():
    assert "numpy" in _import_time_imports(SRC / "hppcheck" / "sampler.py")
    found = []
    for path in sorted((SRC / "hppcheck").glob("*.py")):
        if path.stem in FLOAT_LAYERS:
            continue
        for name in _import_time_imports(path):
            parts = name.split(".")
            if parts[0] == "numpy" or (parts[0] == "hppcheck" and len(parts) > 1
                                       and parts[1] in FLOAT_LAYERS):
                found.append(f"{path.name}: {name}")
    assert not found


_NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
from hppcheck.cli import main
sys.exit(main(sys.argv[2:]))
"""

# the benchmark's set-up body: import the CLI, build the catalog, load the
# shipped certificate store
_SETUP = """
import sys
sys.path.insert(0, sys.argv[1])
import hppcheck.cli
from hppcheck import catalog, certificate
catalog.catalog()
certificate.load_store(certificate.shipped_store_dir())
print(sorted(n for n in sys.modules if n.split(".")[0] == "numpy"))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, str(SRC), *args],
                          capture_output=True, text=True, timeout=120)


def test_setup_loads_no_numpy():
    done = _python(_SETUP)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv,code", [
    (["check-hpp", "V8"], 0),
    (["check-hpp", "nP"], 2),
    (["rdiff", "U_2_4", "1", "2"], 0),
    (["disc", "U_2_4", "1", "2", "3"], 0),
    (["verify-cert", str(shipped_store_dir() / "v8_12.cert")], 0),
], ids=["check_V8", "check_nP", "rdiff", "disc", "verify_cert"])
def test_exact_commands_run_without_numpy(argv, code):
    done = _python(_NUMPY_BLOCKED, *argv)
    assert done.returncode == code, done.stderr
    assert done.stderr == ""


def test_refute_without_numpy_is_one_line_exit_4():
    done = _python(_NUMPY_BLOCKED, "check-hpp", "nP", "--refute")
    assert done.returncode == 4
    assert done.stderr.startswith("error: internal error: ModuleNotFoundError")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
