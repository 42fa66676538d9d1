"""Tests for the command-line interface: formats, exit codes, round trips."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from borderapolar import cli
from borderapolar.apolarity import GeneralTensor, HomPoly, SymTensor, ann_sym_piece
from borderapolar.grading import veronese_ring
from borderapolar.ideals import PointSet, point_ideal
from borderapolar.linalg import QQ
from borderapolar.selftest import SCALES, SUITES, run_selftest, suite_pi_kernel_direct_sum
import borderapolar.diagonal_maps as dmaps


FERMAT = {
    "n": 2,
    "d": 3,
    "representation": "poly",
    "terms": [{"exps": [3, 0], "coeff": "1"}, {"exps": [0, 3], "coeff": "1"}],
}

POINTS2 = {"points": [["1", "0"], ["0", "1"]]}
POINTS3 = {"points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}

PRINCIPAL_V = {
    "ring": "V",
    "n": 2,
    "bound": 4,
    "generators": [
        {"degree": 2, "terms": [{"monomial": [1, 1], "coeff": "1"}]}
    ],
}

LINEAR_S = {
    "ring": "S", "n": 2, "d": 2, "bound": 3,
    "generators": [
        {"degree": [1, 0], "terms": [{"monomial": [[1, 0], [0, 0]], "coeff": "1"}]}
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


class TestAnn:
    def test_fermat_degree_two(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        code, out = run(["ann", tf, "2"], capsys)
        assert code == 0
        assert "annihilator dimension 1" in out
        assert "b1*b2" in out

    def test_full_space_notice(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        code, out = run(["ann", tf, "4"], capsys)
        assert code == 0
        assert "full graded piece" in out

    def test_segre_degree(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        code, out = run(["ann", tf, "1,1,0", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["ring"] == "S" and data["dim"] == 2

    def test_malformed_coefficient(self, tmp_path, capsys):
        bad = dict(FERMAT, terms=[{"exps": [3, 0], "coeff": "1/0"}])
        tf = write(tmp_path, "t.json", bad)
        code = cli.main(["ann", tf, "2"])
        assert code == 2

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,\n "oops"')
        code = cli.main(["ann", str(path), "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err

    def test_wrong_degree_length(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        assert cli.main(["ann", tf, "1,1"]) == 2  # d = 3 needs three entries


class TestHf:
    def test_builtin_diagonal(self, capsys):
        code, out = run(["hf", "--diagonal", "2", "2", "1,1"], capsys)
        assert code == 0
        assert out.split()[-1] == "3"

    def test_builtin_diagonal_several_degrees(self, capsys):
        """With --diagonal N D, the leading positional is the first degree."""
        code, out = run(["hf", "--diagonal", "2", "3", "1,1,0", "2,0,0", "3,0,0"], capsys)
        assert (code, out) == (0, "(1, 1, 0)  3\n(2, 0, 0)  3\n(3, 0, 0)  4\n")

    def test_builtin_diagonal_refuses_modulus(self, capsys, monkeypatch):
        # the diagonal ideal is always built over Q, so a modulus would be ignored
        code = cli.main(["hf", "--diagonal", "2", "2", "1,1", "--modulus", "2147483647"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: --diagonal builds the diagonal ideal over Q; "
                                "it does not take --modulus\n")
        # an environment default is not a conflict: the flag is what is refused
        monkeypatch.setenv("BORDERAPOLAR_MODULUS", "2147483647")
        code, out = run(["hf", "--diagonal", "2", "2", "1,1"], capsys)
        assert (code, out) == (0, "(1, 1)  3\n")

    @pytest.mark.parametrize("diagonal, degree, message", [
        (("0", "3"), "1,1,1", "need n >= 1, got 0"),
        (("2", "0"), "1", "need d >= 1, got 0"),
    ], ids=["n0", "d0"])
    def test_builtin_diagonal_refuses_empty_shape(self, capsys, diagonal, degree, message):
        code = cli.main(["hf", "--diagonal", *diagonal, degree])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    def test_builtin_diagonal_refuses_a_bare_integer_degree(self, capsys):
        code = cli.main(["hf", "--diagonal", "2", "2", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: degree: bad degree 0 (S(n=2, d=2) takes a degree of 2 parts, got 0)\n")

    def test_zero_ideal_file(self, tmp_path, capsys):
        zf = write(tmp_path, "z.json", {"ring": "V", "n": 2, "bound": 3, "generators": []})
        code, out = run(["hf", zf, "0", "1", "2", "3"], capsys)
        assert code == 0
        assert [line.split()[-1] for line in out.strip().splitlines()] == ["1", "2", "3", "4"]

    def test_degree_beyond_bound(self, tmp_path, capsys):
        zf = write(tmp_path, "z.json", {"ring": "V", "n": 2, "bound": 2, "generators": []})
        code = cli.main(["hf", zf, "3"])
        assert code == 2

    def test_generator_beyond_file_bound_rejected(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {
            "ring": "V", "n": 2, "bound": 1,
            "generators": [{"degree": 2,
                            "terms": [{"monomial": [1, 1], "coeff": "1"}]}],
        })
        code = cli.main(["hf", bad, "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "exceeds" in err


BAD_TENSORS = {
    "n-not-integer": dict(FERMAT, n="two"),
    "d-not-integer": dict(FERMAT, d=[3]),
    "exps-entry-not-integer": dict(FERMAT, terms=[{"exps": ["a", 3], "coeff": "1"}]),
    "idx-entry-not-integer": {"n": 2, "d": 3, "representation": "tensor",
                              "entries": [{"idx": [1, "b", 1], "coeff": "1"}]},
    "n-zero": dict(FERMAT, n=0, terms=[]),
    "not-an-object": [FERMAT],
    "term-not-an-object": dict(FERMAT, terms=[5]),
    "terms-not-a-list": dict(FERMAT, terms=5),
    "entry-not-an-object": {"n": 2, "d": 3, "representation": "tensor",
                            "entries": [[1, 1, 1]]},
}

BAD_IDEALS = {
    "n-not-integer": dict(PRINCIPAL_V, n="two"),
    "bound-not-integer": dict(PRINCIPAL_V, bound=3.5),
    "n-zero": dict(PRINCIPAL_V, n=0),
    "d-not-integer": dict(PRINCIPAL_V, d="three"),
    "monomial-not-a-list": dict(PRINCIPAL_V, generators=[
        {"degree": 2, "terms": [{"monomial": 5, "coeff": "1"}]}]),
    "monomial-rows-not-lists": dict(LINEAR_S, generators=[
        {"degree": [1, 0], "terms": [{"monomial": [1, 0], "coeff": "1"}]}]),
    "not-an-object": "V",
    "ring-not-a-string": dict(PRINCIPAL_V, ring=["V"]),
    "generator-not-an-object": dict(PRINCIPAL_V, generators=[5]),
    "generator-term-not-an-object": dict(PRINCIPAL_V, generators=[
        {"degree": 2, "terms": [7]}]),
    "piece-not-an-object": dict(PRINCIPAL_V, pieces=[5]),
    "basis-row-not-a-list": {"ring": "V", "n": 2, "bound": 0,
                             "pieces": [{"degree": 0, "basis": ["1"]}]},
}


class TestMalformedFiles:
    """A file that does not parse exits 2 with a message naming it, never 1
    (for `check`, a failed certificate) and never with a traceback."""

    def _assert_refused(self, args, path, capsys):
        code = cli.main(args)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {path}"), captured.err

    @pytest.mark.parametrize("case", sorted(BAD_TENSORS))
    @pytest.mark.parametrize("command", ["ann", "check"])
    def test_tensor_file(self, tmp_path, capsys, command, case):
        tf = write(tmp_path, "t.json", BAD_TENSORS[case])
        args = (["ann", tf, "2"] if command == "ann" else
                ["check", tf, "2", "--points", write(tmp_path, "p.json", POINTS2)])
        self._assert_refused(args, tf, capsys)

    @pytest.mark.parametrize("case", sorted(BAD_IDEALS))
    @pytest.mark.parametrize("command", ["hf", "check"])
    def test_ideal_file(self, tmp_path, capsys, command, case):
        jf = write(tmp_path, "i.json", BAD_IDEALS[case])
        args = (["hf", jf, "1"] if command == "hf" else
                ["check", write(tmp_path, "t.json", FERMAT), "2", "--ideal", jf])
        self._assert_refused(args, jf, capsys)

    def test_negative_exponent_refused(self, tmp_path, capsys):
        """A generator term whose rows sum to the degree but hold a negative
        exponent names no monomial, so `hf` exits 2 rather than reading it as
        another monomial of the piece."""
        jf = write(tmp_path, "s.json", dict(LINEAR_S, generators=[
            {"degree": [2, 1], "terms": [{"monomial": [[3, -1], [1, 0]], "coeff": "1"}]}]))
        self._assert_refused(["hf", jf, "2,1"], jf, capsys)

    @pytest.mark.parametrize("command,degree,where", [
        ("ann", "x", "--degree"), ("ann", "1,x,0", "--degree"),
        ("hf", "x", "degree"), ("hf", "1,x", "degree")])
    def test_degree_argument(self, tmp_path, capsys, command, degree, where):
        path = write(tmp_path, "f.json", FERMAT if command == "ann" else PRINCIPAL_V)
        code = cli.main([command, path, degree])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {where}: expected an integer, got 'x'\n"

    @pytest.mark.parametrize("command", ["check", "hf", "upsilon"])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, command):
        # refused before any handler runs, like an unreadable input
        def unreachable(*args):
            raise AssertionError("the certificate was computed")

        monkeypatch.setattr(cli, "comon_certificate", unreachable)
        if command == "check":
            args = ["check", write(tmp_path, "t.json", FERMAT), "2",
                    "--points", write(tmp_path, "p.json", POINTS2)]
        elif command == "hf":
            args = ["hf", "--diagonal", "2", "2", "1,1"]
        else:
            args = ["upsilon", write(tmp_path, "i.json", PRINCIPAL_V), "--factors", "3"]
        out = str(tmp_path / "missing" / "x.txt")
        code = cli.main(args + ["--output", out])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"error: cannot write {out}: [Errno 2] "
                                f"No such file or directory: '{out}'\n")
        assert not (tmp_path / "missing").exists()

    def test_output_checked_without_truncating(self, tmp_path, capsys):
        """The early check leaves an existing file as it is when the run later
        exits 2; the report is written at the end."""
        out = tmp_path / "report.txt"
        out.write_text("old\n")
        args = ["check", write(tmp_path, "t.json", FERMAT), "2", "--output", str(out)]
        assert cli.main(args + ["--points", str(tmp_path / "none.json")]) == 2
        assert out.read_text() == "old\n"
        assert cli.main(args + ["--points", write(tmp_path, "p.json", POINTS2)]) == 0
        assert out.read_text().startswith("check:      comon-transfer\n")
        assert capsys.readouterr().out == ""

    def test_environment_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BORDERAPOLAR_SEED", "x")
        assert cli.main(["selftest"]) == 2
        assert capsys.readouterr().err == (
            "error: environment variable BORDERAPOLAR_SEED: expected an integer, got 'x'\n")
        # only selftest reads the seed
        tf = write(tmp_path, "t.json", FERMAT)
        assert run(["ann", tf, "2"], capsys)[0] == 0
        assert run(["hf", write(tmp_path, "i.json", PRINCIPAL_V), "2"], capsys)[0] == 0
        assert run(["check", tf, "2", "--points", write(tmp_path, "p.json", POINTS2)],
                   capsys)[0] == 0


NONSYMMETRIC = {"n": 2, "d": 2, "representation": "tensor",
                "entries": [{"idx": [1, 2], "coeff": "1"}]}
NOT_SYMMETRIC = "not symmetric: entry at (0, 1) is 1, at (1, 0) is 0"

# case -> (argv with {name} for each file written, the files, the message with {name})
REFUSALS = {
    "tensor-field-missing": (["ann", "{t}", "2"], {"t": {"n": 2, "d": 3}},
                             "{t}: missing field 'representation'"),
    "tensor-representation": (["ann", "{t}", "2"], {"t": dict(FERMAT, representation="dense")},
                              "{t}: representation must be 'poly' or 'tensor', got 'dense'"),
    "exps-length": (["ann", "{t}", "2"],
                    {"t": dict(FERMAT, terms=[{"exps": [3], "coeff": "1"}])},
                    "{t}:terms[0]: exps must be a length-2 list"),
    "exps-sum": (["ann", "{t}", "2"], {"t": dict(FERMAT, terms=[{"exps": [2, 0], "coeff": "1"}])},
                 "{t}:terms[0]: exponents sum to 2, expected 3"),
    "index-range": (["ann", "{t}", "1,1,1"],
                    {"t": {"n": 2, "d": 3, "representation": "tensor",
                           "entries": [{"idx": [1, 3, 1], "coeff": "1"}]}},
                    "{t}:entries[0]: indices must lie in 1..2"),
    "bound-missing": (["hf", "{i}", "1"], {"i": {"ring": "V", "n": 2, "generators": []}},
                      "{i}: missing field 'bound'"),
    "basis-row-length": (["hf", "{i}", "1"],
                         {"i": {"ring": "V", "n": 2, "bound": 1,
                                "pieces": [{"degree": 0, "basis": []},
                                           {"degree": 1, "basis": [["1"]]}]}},
                         "{i}:pieces[1]: basis rows must have length 2"),
    "pieces-not-closed": (["hf", "{i}", "1"],
                          {"i": {"ring": "V", "n": 2, "bound": 1,
                                 "pieces": [{"degree": 0, "basis": [["1"]]},
                                            {"degree": 1, "basis": []}]}},
                          "{i}: the stored pieces are not ideal-closed"),
    "points-empty": (["check", "{t}", "2", "--points", "{p}"],
                     {"t": FERMAT, "p": {"points": []}},
                     "{p}: expected a nonempty 'points' list"),
    "point-length": (["check", "{t}", "2", "--points", "{p}"],
                     {"t": FERMAT, "p": {"points": [["1"], ["0", "1"]]}},
                     "{p}:points[0]: expected 2 coordinates"),
    "ann-veronese-degree-of-nonsymmetric": (
        ["ann", "{t}", "2"], {"t": NONSYMMETRIC},
        f"a Veronese-side degree needs a symmetric tensor: {NOT_SYMMETRIC}"),
    "check-nonsymmetric": (["check", "{t}", "2", "--points", "{p}"],
                           {"t": NONSYMMETRIC, "p": POINTS2},
                           f"the check needs a symmetric tensor: {NOT_SYMMETRIC}"),
    "check-without-candidate": (["check", "{t}", "2"], {"t": FERMAT},
                                "provide an ideal file or a --points decomposition hint"),
}


@pytest.mark.parametrize("argv, files, message", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal_message(tmp_path, capsys, argv, files, message):
    """Each refusal exits 2 with its own message on stderr and nothing on stdout."""
    paths = {name: write(tmp_path, f"{name}.json", payload) for name, payload in files.items()}
    code = cli.main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message.format(**paths)}\n")


class TestTransportCommands:
    def test_upsilon_rho_file_round_trip(self, tmp_path, capsys):
        vf = write(tmp_path, "i.json", PRINCIPAL_V)
        up = str(tmp_path / "up.json")
        back = str(tmp_path / "back.json")
        assert cli.main(["upsilon", vf, "--factors", "3", "--format", "json",
                         "--output", up]) == 0
        assert cli.main(["rho", up, "--format", "json", "--output", back]) == 0
        direct = cli.dump_ideal(cli.load_ideal_file(vf, QQ, None))
        assert json.load(open(back)) == direct

    def test_upsilon_of_points_matches_diagonal_points(self, tmp_path, capsys):
        from borderapolar.ideals import PointSet, diagonal_points, point_ideal
        from borderapolar.grading import veronese_ring

        z = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
        ideal = point_ideal(z, 3)
        pieces_payload = cli.dump_ideal(ideal)
        vf = write(tmp_path, "pts_ideal.json", pieces_payload)
        up = str(tmp_path / "up.json")
        assert cli.main(["upsilon", vf, "--factors", "3", "--format", "json",
                         "--output", up]) == 0
        diag = cli.dump_ideal(point_ideal(diagonal_points(z, 3), 3))
        assert json.load(open(up))["pieces"] == diag["pieces"]

    def test_sigma_refusal(self, tmp_path, capsys):
        sf = write(tmp_path, "s.json", LINEAR_S)
        code = cli.main(["sigma", sf])
        err = capsys.readouterr().err
        assert code == 2
        assert "diagonal" in err

    @pytest.mark.parametrize("command, payload, message", [
        (["upsilon", "--factors", "3"], LINEAR_S,
         "desymmetrization expects an ideal in the Veronese ring"),
        (["rho"], PRINCIPAL_V, "rho expects an ideal in the Segre coordinate ring"),
    ], ids=["upsilon-of-S", "rho-of-V"])
    def test_wrong_ring_exits_two(self, tmp_path, capsys, command, payload, message):
        path = write(tmp_path, "ideal.json", payload)
        code = cli.main([command[0], path, *command[1:]])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCheck:
    def test_diagonal_n3_passes(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", {
            "n": 3, "d": 3, "representation": "poly",
            "terms": [{"exps": [3, 0, 0], "coeff": 1},
                      {"exps": [0, 3, 0], "coeff": 1},
                      {"exps": [0, 0, 3], "coeff": 1}],
        })
        pf = write(tmp_path, "p.json", POINTS3)
        code, out = run(["check", tf, "3", "--points", pf], capsys)
        assert code == 0
        assert "verdict:    pass" in out

    def test_failed_check_exits_one(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        zf = write(tmp_path, "z.json", {
            "ring": "S", "n": 2, "d": 3, "bound": 4, "generators": [],
        })
        code, out = run(["check", tf, "2", "--ideal", zf], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_points_and_ideal_together_refused_before_reading(self, tmp_path, capsys):
        """The zero ideal fails on its own; given with --points, neither the
        tensor nor either candidate file is read."""
        missing = [str(tmp_path / name) for name in ("t.json", "p.json", "z.json")]
        code = cli.main(["check", missing[0], "2", "--points", missing[1],
                         "--ideal", missing[2]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: give one candidate ideal: --points or --ideal, not both\n"

    def test_r_out_of_range(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", {
            "n": 3, "d": 3, "representation": "poly",
            "terms": [{"exps": [3, 0, 0], "coeff": 1},
                      {"exps": [0, 3, 0], "coeff": 1},
                      {"exps": [0, 0, 3], "coeff": 1}],
        })
        pf = write(tmp_path, "p.json", POINTS3)
        code = cli.main(["check", tf, "10", "--points", pf])
        assert code == 2

    def test_sharp_flag_attaches_certificates(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        code, out = run(["check", tf, "2", "--points", pf, "--sharp-check",
                         "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["sharp"]["verdict"] == "pass"
        assert data["sharp111"]["verdict"] == "pass"

    def test_text_json_verdicts_agree(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        code_t, out_t = run(["check", tf, "2", "--points", pf], capsys)
        code_j, out_j = run(["check", tf, "2", "--points", pf, "--format", "json"],
                            capsys)
        assert code_t == code_j == 0
        data = json.loads(out_j)
        assert ("pass" if "verdict:    pass" in out_t else "fail") == data["verdict"]
        # dimensions quoted in the text match the json witnesses
        for w in data["witnesses"]:
            if w.get("stage") == "pi-containment":
                assert f"dim_lhs={w['dim_lhs']}" in out_t

    def test_deterministic_output(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        _, out1 = run(["check", tf, "2", "--points", pf], capsys)
        _, out2 = run(["check", tf, "2", "--points", pf], capsys)
        assert out1 == out2

    def test_modulus_flag(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        for modulus in ("1048583", "998244353"):  # 998244353 - 1 = 119 * 2^23
            code, out = run(["check", tf, "2", "--points", pf,
                             "--modulus", modulus], capsys)
            assert code == 0
            assert "verdict:    pass" in out

    def test_bad_modulus_rejected(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        for modulus, message in [
            ("97", "modulus must exceed 2^20, got 97"),
            # 1000003 * 1000033: no factor up to 37, so a Miller-Rabin witness refuses it
            ("1000036000099", "modulus 1000036000099 is not prime"),
        ]:
            assert cli.main(["check", tf, "2", "--points", pf, "--modulus", modulus]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_env_modulus(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BORDERAPOLAR_MODULUS", "97")
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        assert cli.main(["check", tf, "2", "--points", pf]) == 2
        monkeypatch.setenv("BORDERAPOLAR_MODULUS", "1048583")
        assert cli.main(["check", tf, "2", "--points", pf]) == 0


class TestDegreeBoundBelowOrder:
    """check --degree-bound B with B < d exits 2 before any ideal is built."""

    @pytest.mark.parametrize("bound", ["0", "2"])
    @pytest.mark.parametrize("source", ["points", "ideal"])
    def test_rejected_up_front(self, tmp_path, capsys, monkeypatch, bound, source):
        def unreachable(*args, **kwargs):
            raise AssertionError("built an ideal for a bound below the order")

        for name in ("point_ideal", "upsilon", "expand", "comon_certificate"):
            monkeypatch.setattr(cli, name, unreachable)
        tf = write(tmp_path, "t.json", FERMAT)
        if source == "points":
            hint = ["--points", write(tmp_path, "p.json", POINTS2)]
        else:
            hint = ["--ideal", write(tmp_path, "z.json", {
                "ring": "S", "n": 2, "d": 3, "bound": 4, "generators": []})]
        code = cli.main(["check", tf, "2", *hint, "--degree-bound", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: --degree-bound {bound} is below the tensor order 3: "
                                "the check reads the pieces up to total degree 3\n")

    def test_bound_equal_to_order_runs(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        code, out = run(["check", tf, "2", "--points", pf, "--degree-bound", "3"], capsys)
        assert code == 0
        assert "tested up to total degree 3" in out


class TestDegreeBoundRules:
    """A negative --degree-bound exits 2 before any file is read, and one above
    an ideal file's own bound exits 2 on every subcommand that reads the file."""

    @pytest.mark.parametrize("command", [
        ["hf", "missing.json", "0"],
        ["hf", "--diagonal", "2", "3", "0"],
        ["upsilon", "missing.json", "--factors", "2"],
        ["sigma", "missing.json"],
        ["rho", "missing.json"],
        ["check", "missing.json", "2", "--points", "missing.json"],
        ["check", "missing.json", "2", "--ideal", "missing.json"],
    ], ids=["hf", "hf-diagonal", "upsilon", "sigma", "rho", "check-points", "check-ideal"])
    def test_negative_bound_refused_before_reading(self, tmp_path, capsys, monkeypatch,
                                                   command):
        monkeypatch.chdir(tmp_path)
        code = cli.main([*command, "--degree-bound", "-1"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: --degree-bound must be nonnegative, got -1\n")

    def test_negative_file_bound_refused(self, tmp_path, capsys):
        path = write(tmp_path, "v.json", {**PRINCIPAL_V, "bound": -1})
        code = cli.main(["upsilon", path, "--factors", "2"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {path}: bound must be nonnegative, got -1\n")

    @pytest.mark.parametrize("command, ring", [
        (["hf", "IDEAL", "2"], "V"),
        (["upsilon", "IDEAL", "--factors", "2"], "V"),
        (["sigma", "IDEAL"], "S"),
        (["rho", "IDEAL"], "S"),
        (["check", "TENSOR", "2", "--ideal", "IDEAL"], "S"),
    ], ids=["hf", "upsilon", "sigma", "rho", "check"])
    def test_bound_above_the_file_refused(self, tmp_path, capsys, command, ring):
        from borderapolar.transfer import upsilon

        payload = PRINCIPAL_V
        if ring == "S":  # the bound-4 upsilon of the two coordinate points
            z = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
            payload = cli.dump_ideal(upsilon(point_ideal(z, 4), 3, 4))
        path = write(tmp_path, "i.json", payload)
        files = {"IDEAL": path, "TENSOR": write(tmp_path, "t.json", FERMAT)}
        args = [files.get(a, a) for a in command]
        bound = payload["bound"]
        code = cli.main([*args, "--degree-bound", "9"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: {path}: --degree-bound 9 exceeds the file's bound {bound}\n"
        # the file's own bound is accepted, and so is a lower one
        for ok in (str(bound), "3"):
            assert cli.main([*args, "--degree-bound", ok]) == 0
            capsys.readouterr()

    def test_missing_piece_refused(self, tmp_path, capsys):
        """A piece file needs every degree up to the bound in use; pieces above
        a lower --degree-bound are read and allowed."""
        z = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
        payload = cli.dump_ideal(point_ideal(z, 3))
        del payload["pieces"][2]
        path = write(tmp_path, "i.json", payload)
        code = cli.main(["hf", path, "2"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: missing piece J_2: every degree up to the bound 3 "
                       "needs one\n")
        assert cli.main(["hf", path, "1", "--degree-bound", "1"]) == 0


class TestIdealBelowOrder:
    """check --ideal FILE with a file bound below d exits 2 before any stage runs."""

    @pytest.mark.parametrize("ideal", ["zero", "upsilon"])
    def test_exits_two(self, tmp_path, capsys, ideal):
        from borderapolar.grading import veronese_ring
        from borderapolar.ideals import PointSet, point_ideal
        from borderapolar.transfer import upsilon

        if ideal == "zero":  # fails the Hilbert function stage when that runs first
            payload = {"ring": "S", "n": 2, "d": 3, "bound": 2, "generators": []}
        else:  # passes every stage below the pi-containment one
            z = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
            payload = cli.dump_ideal(upsilon(point_ideal(z, 2), 3, 2))
        tf = write(tmp_path, "t.json", FERMAT)
        code = cli.main(["check", tf, "2", "--ideal", write(tmp_path, "i.json", payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need the truncation bound >= 3, got 2\n"


class TestIdealOutsideTheTensorRing:
    """check --ideal FILE with an ideal outside the tensor's Segre ring exits 2
    before any stage runs, also where the two rings share every V_k."""

    @pytest.mark.parametrize("factors, ring", [("4", "S(n=2, d=4)"), (None, "V(n=2)")],
                             ids=["upsilon-with-other-factors", "veronese-file"])
    def test_exits_two(self, tmp_path, capsys, factors, ring):
        from borderapolar.grading import veronese_ring
        from borderapolar.ideals import PointSet, point_ideal

        z = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
        path = write(tmp_path, "v.json", cli.dump_ideal(point_ideal(z, 5)))
        if factors is not None:
            dumped = str(tmp_path / "up.json")
            assert cli.main(["upsilon", path, "--factors", factors, "--format", "json",
                             "--output", dumped]) == 0
            path = dumped
        tf = write(tmp_path, "t.json", FERMAT)
        capsys.readouterr()
        code = cli.main(["check", tf, "2", "--ideal", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"error: the ideal's ring {ring} is not the tensor's "
                                "Segre ring S(n=2, d=3)\n")


class TestFlagsPerSubcommand:
    """--modulus, --degree-bound and --seed exist only on the subcommands that
    read them."""

    @pytest.mark.parametrize("argv", [
        ["selftest", "--scale", "desk", "--modulus", "2147483647"],
        ["selftest", "--degree-bound", "1"],
        ["ann", "TENSOR", "2", "--degree-bound", "2"],
        ["ann", "TENSOR", "2", "--seed", "7"],
        ["hf", "FILE", "2", "--seed", "7"],
        ["upsilon", "FILE", "--factors", "3", "--seed", "7"],
        ["sigma", "FILE", "--seed", "7"],
        ["rho", "FILE", "--seed", "7"],
        ["check", "TENSOR", "2", "--points", "FILE", "--seed", "7"],
    ], ids=["selftest-modulus", "selftest-degree-bound", "ann-degree-bound", "ann-seed",
            "hf-seed", "upsilon-seed", "sigma-seed", "rho-seed", "check-seed"])
    def test_unread_flag_exits_two(self, tmp_path, capsys, argv):
        paths = {"TENSOR": write(tmp_path, "t.json", FERMAT),
                 "FILE": write(tmp_path, "f.json", POINTS2)}
        with pytest.raises(SystemExit) as exc:
            cli.main([paths.get(a, a) for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err

    def test_readme_flag_table(self):
        """Each flag in README's "Flags, by subcommand" table is taken by exactly
        the subcommands listed for it."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("Flags, by subcommand:", 1)[1].split("\n\n")[1]
        subs = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        listed = set()
        for row in table.splitlines()[2:]:
            _, flags, where, _ = re.split(r"(?<!\\)\|", row)
            named = set(re.findall(r"`(\w+)`", where))
            want = (set(subs) - named if where.strip().startswith("all") else named)
            for flag in re.findall(r"`(--[\w-]+)", flags):
                listed.add(flag)
                takes = {name for name, p in subs.items() if flag in p._option_string_actions}
                assert takes == want, flag
        assert listed == {"--format", "--output", "--modulus", "--degree-bound", "--seed"}

    def test_flags_where_read(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        code, out = run(["ann", tf, "2", "--modulus", "2147483647"], capsys)
        assert code == 0
        assert "annihilator dimension 1" in out
        zf = write(tmp_path, "z.json", {"ring": "V", "n": 2, "bound": 3, "generators": []})
        assert run(["hf", zf, "2", "--degree-bound", "2", "--modulus", "1048583"],
                   capsys)[0] == 0
        assert cli.main(["hf", zf, "3", "--degree-bound", "2"]) == 2
        assert run(["selftest", "--seed", "3", "--format", "json"], capsys)[0] == 0

    def test_selftest_ignores_env_modulus(self, capsys, monkeypatch):
        monkeypatch.setenv("BORDERAPOLAR_MODULUS", "97")  # not a valid modulus
        code, out = run(["selftest", "--scale", "desk"], capsys)
        assert code == 0
        assert "overall: pass" in out


class TestDenominatorDivisibleByModulus:
    """A coefficient with no value mod p is a usage error on every load path."""

    BAD = "1/1048583"

    def files(self, tmp_path, path):
        bad = self.BAD
        tensor, points = FERMAT, POINTS2
        ideal = None
        if path == "tensor":
            tensor = dict(FERMAT, terms=[{"exps": [3, 0], "coeff": bad},
                                         {"exps": [0, 3], "coeff": "1"}])
        elif path == "points":
            points = {"points": [[bad, "0"], ["0", "1"]]}
        elif path == "generators":
            ideal = {"ring": "S", "n": 2, "d": 3, "bound": 4, "generators": [
                {"degree": [1, 0, 0],
                 "terms": [{"monomial": [[1, 0], [0, 0], [0, 0]], "coeff": bad}]}]}
        else:
            ideal = {"ring": "S", "n": 2, "d": 3, "bound": 0,
                     "pieces": [{"degree": [0, 0, 0], "basis": [[bad]]}]}
        args = ["check", write(tmp_path, "t.json", tensor), "2"]
        if ideal is None:
            return args + ["--points", write(tmp_path, "p.json", points)]
        return args + ["--ideal", write(tmp_path, "i.json", ideal)]

    @pytest.mark.parametrize("path", ["tensor", "points", "generators", "pieces"])
    def test_exits_two_naming_value_and_modulus(self, tmp_path, capsys, path):
        assert cli.main(self.files(tmp_path, path) + ["--modulus", "1048583"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "1/1048583 has no value mod 1048583" in err


class TestSelftest:
    def test_scale_choices_are_the_selftest_scales(self):
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        scale = next(a for a in commands.choices["selftest"]._actions if a.dest == "scale")
        assert list(scale.choices) == sorted(SCALES)

    def test_desk_scale_passes(self, capsys):
        code, out = run(["selftest", "--scale", "desk"], capsys)
        assert code == 0
        assert "overall: pass" in out

    def test_deep_scale_passes(self):
        results, ok = run_selftest("deep")
        assert [r.name for r in results] == [name for name, _ in SUITES]
        assert ok, [r.name for r in results if not r.passed]
        assert [r.instances for r in results] == [35, 606, 360, 32, 9, 3, 16, 3]

    def test_deep_scale_raises_the_knobs(self):
        desk, deep = SCALES["desk"], SCALES["deep"]
        assert deep.max_n == desk.max_n + 1
        assert deep.max_d == desk.max_d + 1
        assert deep.bound == desk.bound + 1

    def test_negative_controls_fail_at_the_accepting_instance(self, monkeypatch):
        import random
        from types import SimpleNamespace

        from borderapolar import selftest

        def accepting(*args, **kwargs):
            return SimpleNamespace(verdict=True)

        monkeypatch.setattr(selftest, "check_condition_iii", accepting)
        result = selftest.suite_negative_controls(SCALES["desk"], random.Random(0))
        assert (result.name, result.instances, result.passed) == ("negative-controls", 1, False)
        assert result.detail == "condition iii accepted a piece that is not apolar to the tensor"

        monkeypatch.undo()
        monkeypatch.setattr(selftest, "sigma", lambda j: j)
        result = selftest.suite_negative_controls(SCALES["desk"], random.Random(0))
        assert (result.instances, result.passed) == (2, False)
        assert result.detail == "sigma accepted an ideal without I_R"

    def test_degree_one_image_fails_against_another_forms_piece(self, monkeypatch):
        """pi(Ann(F)_(1,...,1)) is compared with Ann(p_F)_d by annihilator rows
        alone; swapping the target for the piece of another form of the same
        shape, x_0^d + ... + x_{n-1}^d, fails the first instance."""
        import random

        from borderapolar import selftest

        real = selftest.ann_sym_piece

        def another(p, k):
            powers = {tuple(k if t == i else 0 for t in range(p.n)): 1 for i in range(p.n)}
            return real(HomPoly(p.n, k, powers, field=p.field), k)

        assert selftest.suite_degree_one_image(SCALES["desk"], random.Random(0)).passed
        monkeypatch.setattr(selftest, "ann_sym_piece", another)
        result = selftest.suite_degree_one_image(SCALES["desk"], random.Random(0))
        assert (result.instances, result.passed) == (1, False)
        assert result.detail == "projected annihilator differs at n=2 d=3"

    def test_mutated_psi_fails_kernel_suite(self, monkeypatch):
        import dataclasses
        import random

        good_pi_fibres = dmaps.pi_fibres

        def broken_pi_fibres(n, d, u):
            fib = good_pi_fibres(n, d, u)
            section = list(fib.section)
            if len(section) >= 2:  # two monomials share a column: psi is not injective
                section[1] = section[0]
            return dataclasses.replace(fib, section=tuple(section))

        monkeypatch.setattr(dmaps, "pi_fibres", broken_pi_fibres)
        result = suite_pi_kernel_direct_sum(SCALES["desk"], random.Random(0))
        assert not result.passed
        assert "direct sum" in result.detail

    def test_corrupted_fibre_table_fails_kernel_suite(self, monkeypatch):
        import dataclasses
        import random

        good_pi_fibres = dmaps.pi_fibres

        def broken_pi_fibres(n, d, u):
            fib = good_pi_fibres(n, d, u)
            f = list(fib.f)
            for m in range(len(fib.section)):
                fibre = [c for c, x in enumerate(f) if x == m]
                if len(fibre) > 1:  # a column of a larger fibre moves to the next fibre
                    f[fibre[0]] = (m + 1) % len(fib.section)
                    break
            return dataclasses.replace(fib, f=tuple(f))

        monkeypatch.setattr(dmaps, "pi_fibres", broken_pi_fibres)
        result = suite_pi_kernel_direct_sum(SCALES["desk"], random.Random(0))
        assert not result.passed
        assert "generator expansion differs" in result.detail


class TestSerializationRoundTrips:
    def test_tensor_poly_round_trip(self, tmp_path):
        f = cli.tensor_from_file(write(tmp_path, "t.json", FERMAT), QQ)
        assert type(f) is SymTensor
        # re-serialize through the tensor representation and reload
        payload = {
            "n": f.n, "d": f.order, "representation": "tensor",
            "entries": [
                {"idx": [i + 1 for i in idx], "coeff": str(c)}
                for idx, c in sorted(f.entries.items())
            ],
        }
        g = cli.tensor_from_file(write(tmp_path, "t2.json", payload), QQ)
        assert type(g) is GeneralTensor
        assert g.entries == f.entries

    def test_ideal_round_trip(self, tmp_path):
        ideal = cli.load_ideal_file(write(tmp_path, "i.json", PRINCIPAL_V), QQ, None)
        payload = cli.dump_ideal(ideal)
        reloaded = cli.load_ideal_file(write(tmp_path, "i2.json", payload), QQ, None)
        assert cli.dump_ideal(reloaded) == payload

    @pytest.mark.parametrize("d", [3, 0])
    def test_veronese_file_loads_in_the_veronese_ring(self, tmp_path, d):
        """A V file's `d` is parsed but read by nothing: its pieces are tagged
        with veronese_ring(n), like every V-side piece the library makes."""
        z = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
        payload = dict(cli.dump_ideal(point_ideal(z, 3)), d=d)
        ideal = cli.load_ideal_file(write(tmp_path, "i.json", payload), QQ, None)
        assert ideal.ring == veronese_ring(2)
        assert ann_sym_piece(HomPoly(2, 3, {(3, 0): 1, (0, 3): 1}), 2).contains(ideal.piece(2))

    def test_certificate_round_trip(self, tmp_path, capsys):
        tf = write(tmp_path, "t.json", FERMAT)
        pf = write(tmp_path, "p.json", POINTS2)
        _, out = run(["check", tf, "2", "--points", pf, "--format", "json"], capsys)
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data


# The text report of `check FERMAT 2 --points POINTS2 --sharp-check`, pinned:
# loading `bounds` only when `--sharp-check` asks for it changes no byte.
FERMAT_SHARP_REPORT = """\
check:      comon-transfer
inputs:     5a443dd6bdcb7992
verdict:    pass
membership: Slip-certified (upsilon-of-point)
tested up to total degree 4
  - stage=conciseness, flattening_ranks=(2, 2, 2), ok=True
  - stage=flattening-lower-bound, bound=2, r=2, ok=True
  - stage=hilbert-function, ok=True
  - degree=(0, 0, 0), dim_ideal=0, dim_ann=0, ok=True
  - degree=(1, 0, 0), dim_ideal=0, dim_ann=0, ok=True
  - degree=(0, 1, 0), dim_ideal=0, dim_ann=0, ok=True
  - degree=(0, 0, 1), dim_ideal=0, dim_ann=0, ok=True
  - degree=(1, 1, 0), dim_ideal=2, dim_ann=2, ok=True
  - degree=(1, 0, 1), dim_ideal=2, dim_ann=2, ok=True
  - degree=(0, 1, 1), dim_ideal=2, dim_ann=2, ok=True
  - degree=(1, 1, 1), dim_ideal=6, dim_ann=7, ok=True
  - stage=saturation, tested_degrees=4, ok=True
  - stage=pi-containment, dim_lhs=2, dim_rhs=2, ok=True
  - stage=rho-apolarity, degree=3, dim=2, dim_ann=3, ok=True
  - stage=rho-hilbert-function, ok=True

check:      sharp
inputs:     e9a2ee95dbd71c01
verdict:    pass
  - stage=degree-one-generators, count=1, want=1, ok=True
  - stage=unit-box-hilbert, ok=True
  - stage=two-factor-growth, ok=True

check:      111-sharp
inputs:     e9a2ee95dbd71c01
verdict:    pass
  - stage=degree-111-generators, count=1, want=1, ok=True
"""

# Runs `main(argv)` after `import borderapolar.cli`, then reports on stderr
# which of `bounds` and `selftest` the run compiled.
STARTUP_PROBE = """\
import sys
import borderapolar.cli
code = borderapolar.cli.main(sys.argv[1:])
print([m for m in ("borderapolar.bounds", "borderapolar.selftest") if m in sys.modules],
      file=sys.stderr)
sys.exit(code)
"""


class TestStartup:
    """`check` compiles neither `bounds` nor `selftest`; the package's `bounds`
    exports resolve on first access."""

    @staticmethod
    def probe(tmp_path, *flags):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        argv = ["check", write(tmp_path, "t.json", FERMAT), "2",
                "--points", write(tmp_path, "p.json", POINTS2), *flags]
        proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr.strip().splitlines()[-1]

    def test_check_loads_neither(self, tmp_path):
        code, out, loaded = self.probe(tmp_path)
        assert code == 0
        assert out == FERMAT_SHARP_REPORT.split("\n\n")[0] + "\n"
        assert loaded == "[]"

    def test_sharp_check_loads_bounds_and_prints_the_same_bytes(self, tmp_path):
        code, out, loaded = self.probe(tmp_path, "--sharp-check")
        assert code == 0
        assert out == FERMAT_SHARP_REPORT
        assert loaded == "['borderapolar.bounds']"

    def test_bounds_exports_resolve_to_the_same_objects(self):
        import borderapolar
        from borderapolar import bounds

        names = ["MacaulayRep", "is_111_sharp", "is_sharp", "macaulay_bound", "macaulay_rep",
                 "verify_containment_lemma", "verify_gen_count_transfer",
                 "verify_lemma_1_minus_ed"]
        for name in names:
            assert getattr(borderapolar, name) is getattr(bounds, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            borderapolar.no_such_name
