"""Tests for the command-line interface, its parser and its exit codes."""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qadhm.cli
from qadhm.adhm import random_stable_solution
from qadhm.cli import (
    MAX_CHARGE,
    MAX_COCYCLE_ITEMS,
    MAX_DET_POWER,
    MAX_EXPR_DEGREE,
    MAX_EXPR_LENGTH,
    MAX_GRID_SIZE,
    MAX_RANK,
    MAX_TWO_L,
    CLIError,
    run,
)
from qadhm.exactcore import ComplexADHMDatum, Matrix, RealADHMDatum
from qadhm.expr import ExprParser, parse_expr
from qadhm.chern import chi_twist
from qadhm.qcalculus import derive_table, laplacian, partials
from qadhm.qspacetime import HarmonicIndex, NCPoly, X_NAMES, basis_element, det_x
from qadhm.scalars import GaussRational, QLaurent
from qadhm.usage import build_parser

from helpers import random_complex_datum

Z = GaussRational(0)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src" / "qadhm"


def invoke(argv, capsys):
    code = run(argv)
    return code, capsys.readouterr().out


def run_python(args, stdout=subprocess.PIPE, **environ):
    """Run ``sys.executable`` with ``args`` on the ``qadhm`` imported here.

    The import root of that package goes first on the child's PYTHONPATH,
    so the child checks this checkout, not another ``qadhm`` it may find.
    ``environ`` sets further variables of the child; None unsets one.
    """
    root = str(Path(qadhm.__file__).resolve().parents[1])
    env = {**os.environ, **environ}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


def declared_script(name):
    """The ``module:attr`` target of ``[project.scripts].<name>``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def stable_not_semiregular():
    return ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                            [[1, 0]], [[0, 1]], [[0], [0]], [[0], [0]])


def dual_costable_solution(r, c, seed):
    d = random_stable_solution(r, c, seed)
    zero_i = Matrix.zero(c, r, Z)
    return ComplexADHMDatum(c, r,
                            d.B11.transpose(), d.B12.transpose(),
                            d.B21.transpose(), d.B22.transpose(),
                            zero_i, zero_i,
                            d.i1.transpose(), d.i2.transpose())


class TestExprParser:
    def test_words_and_scalars(self):
        assert parse_expr("det") == det_x()
        assert parse_expr("x11") == NCPoly.gen("I", "x11")
        two = NCPoly("I", {(0, 0, 0, 0): QLaurent({0: 2})})
        assert parse_expr("2") == two
        q2 = NCPoly("I", {(0, 0, 0, 0): QLaurent.q_power(2)})
        assert parse_expr("q^2") == q2
        assert parse_expr("q^+2") == q2
        assert parse_expr("q") == NCPoly("I", {(0, 0, 0, 0): QLaurent.q_power(1)})

    def test_products_and_sums(self):
        x11, x22 = NCPoly.gen("I", "x11"), NCPoly.gen("I", "x22")
        assert parse_expr("x11*x22") == x11 * x22
        assert parse_expr("(x11 + x22) * x11") == (x11 + x22) * x11
        assert parse_expr("x11 - x11").is_zero()
        assert parse_expr("-3*x11 + x11") == x11.scale(GaussRational(-2))
        assert parse_expr("--x11") == x11

    def test_normal_ordering_applied(self):
        # the exchange rule turns x21*x12 into q^2 x12 x21
        got = parse_expr("x21*x12")
        want = parse_expr("q^2 * x12 * x21")
        assert got == want
        assert parse_expr("x21*x12 - q^2*x12*x21").is_zero()

    def test_parse_errors(self):
        # a digit of another script is no INT
        for bad in ("", "  ", "x13", "q^", "q^x11", "2**3", "(x11",
                    "x11)", "x11 +", "3x11", "x11 @ x22", "x11*\u00b2",
                    "x11*\u0663"):
            with pytest.raises(CLIError):
                parse_expr(bad)

    def test_tokenizer(self):
        assert ExprParser("q^-2*x11")._tokenize("q^-2*x11") == \
            ["q", "^", "-", 2, "*", "x11"]


def _error(argv, capsys):
    """The JSON error object of a command that must exit 2."""
    code, out = invoke(argv, capsys)
    assert code == 2
    return json.loads(out)["error"]


class TestOptionChecks:
    """The range checks of ``adhm random --seed``, ``-r`` and ``-c`` and of
    ``inst slices --grid-size``, which their handlers make."""

    SEED_ERROR = {"type": "CLIError",
                  "message": "seed must be a 64-bit integer"}

    def test_seed_range(self, capsys):
        # r = 500 is over its cap too: the seed is checked first
        for r, seed in ((2, 1 << 63), (2, -(1 << 63) - 1), (500, 1 << 80)):
            assert _error(["adhm", "random", "-r", str(r), "-c", "1",
                           "--seed", str(seed)], capsys) == self.SEED_ERROR
        for seed in ((1 << 63) - 1, -(1 << 63)):
            code, out = invoke(["adhm", "random", "-r", "2", "-c", "1",
                                "--seed", str(seed)], capsys)
            assert code == 0 and json.loads(out)["c"] == 1

    def test_random_rank_bound(self, capsys):
        # the seeded construction needs r >= 2; the refusal names -r and
        # comes before the stability code is loaded
        for r in (1, 0, -1):
            assert _error(["adhm", "random", "-r", str(r), "-c", "1"],
                          capsys) == {"type": "CLIError",
                                      "message": "-r must be at least 2"}
        proc = run_python(["-c", _LOADED_BY_RUN, "adhm", "random", "-r", "1",
                           "-c", "1"])
        rep = json.loads(proc.stdout)
        assert rep["code"] == 2 and "qadhm.adhm" not in rep["new"]
        code, out = invoke(["adhm", "random", "-r", "2", "-c", "1"], capsys)
        assert code == 0 and json.loads(out)["r"] == 2

    def test_random_charge_bound(self, capsys):
        # the refusal names -c and comes before the stability code is loaded
        for c in (0, -1):
            assert _error(["adhm", "random", "-r", "2", "-c", str(c)],
                          capsys) == {"type": "CLIError",
                                      "message": "-c must be at least 1 "
                                                 "(c >= 1)"}
        proc = run_python(["-c", _LOADED_BY_RUN, "adhm", "random", "-r", "2",
                           "-c", "0"])
        rep = json.loads(proc.stdout)
        assert rep["code"] == 2 and "qadhm.adhm" not in rep["new"]

    def test_grid_size_bound(self, tmp_path, capsys):
        # 12 is the largest grid the tests and the benchmark use
        assert MAX_GRID_SIZE >= 12
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 0).to_json())
        for size in (0, -1, MAX_GRID_SIZE + 1):
            assert _error(["inst", "slices", f, "--grid-size", str(size)],
                          capsys) == {
                "type": "CLIError",
                "message": f"grid_size must lie in 1..{MAX_GRID_SIZE}"}
        for size in (1, MAX_GRID_SIZE):
            code, out = invoke(["inst", "slices", f, "--dmax", "0",
                                "--grid-size", str(size)], capsys)
            assert code == 0 and len(json.loads(out)["reports"]) == size

    def test_defaults(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 0).to_json())
        rep = json.loads(invoke(["inst", "slices", f, "--dmax", "0"],
                                capsys)[1])
        assert rep["grid_size"] == 12
        out = invoke(["adhm", "random", "-r", "2", "-c", "1"], capsys)[1]
        assert json.loads(out) == random_stable_solution(2, 1, 0).to_json()
        assert json.loads(invoke(["q", "table"], capsys)[1])["p_choice"] \
            == "q"

    @pytest.mark.parametrize("argv", [
        ["adhm", "check", "d.json", "--seed", "3"],
        ["monad", "chern", "-r", "2", "-c", "1", "-k", "0", "--p-choice", "q"],
        ["q", "table", "--grid-size", "5"],
        ["inst", "verify", "d.json", "--p-choice", "qinv"],
        ["inst", "curvature", "d.json", "--seed", "0"],
    ], ids=" ".join)
    def test_unread_options_are_usage_errors(self, argv, capsys):
        # an option goes only on the commands that read it
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestAdhmCommands:
    def test_check_classifies_the_stable_not_semiregular_datum(
            self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json", stable_not_semiregular().to_json())
        code, out = invoke(["adhm", "check", f], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["solution"]
        assert rep["classification"]["stable_everywhere"] is True
        assert rep["classification"]["regular"] is False
        assert all(all(x == "0/1" for row in m for x in row)
                   for m in rep["residuals"])

    def test_check_reports_a_monic_gcd_for_c_r_1(self, tmp_path, capsys):
        # one nonzero Krylov minor, i~ = (-1+3i)*z + (1/2+i/3)*w
        d = ComplexADHMDatum(1, 1, [["3/2+3/2*i"]], [["-3/2+1/2*i"]], [[0]],
                             [["1/1+1/1*i"]], [["-1/1+3/1*i"]],
                             [["1/2+1/3*i"]], [[0]], [[0]])
        f = write_json(tmp_path / "d.json", d.to_json())
        code, out = invoke(["adhm", "check", f], capsys)
        cls = json.loads(out)["classification"]
        assert code == 0
        assert cls["stability_gcd"] == "(1/1)*z + (1/20-11/60*i)*w"
        assert cls["failing_points"] == [{"side": "stable", "z": "-1/20+11/60*i",
                                          "w": "1/1", "multiplicity": 1}]

    def test_check_non_solution_exits_one(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_complex_datum(2, 1, 3).to_json())
        code, out = invoke(["adhm", "check", f], capsys)
        assert code == 1
        assert not json.loads(out)["solution"]

    def test_check_rejects_real_datum(self, tmp_path, capsys):
        real = RealADHMDatum(1, 2, [[0]], [[0]], [[1, 0]], [[0], [1]])
        f = write_json(tmp_path / "r.json", real.to_json())
        code, out = invoke(["adhm", "check", f], capsys)
        assert code == 2
        assert "embed" in json.loads(out)["error"]["message"]

    def test_missing_file_is_an_error_object(self, capsys):
        code, out = invoke(["adhm", "check", "/nonexistent/x.json"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "CLIError"

    def test_embed_then_verify(self, tmp_path, capsys):
        real = RealADHMDatum(1, 2, [[0]], [[0]], [[1, 0]], [[0], [1]])
        f = write_json(tmp_path / "r.json", real.to_json())
        out_path = tmp_path / "c.json"
        code, _ = invoke(["adhm", "embed", f, "--output", str(out_path)],
                         capsys)
        assert code == 0
        blob = json.loads(out_path.read_text(encoding="utf-8"))
        assert blob["kind"] == "complex"
        code, out = invoke(["inst", "verify", str(out_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["I"]["all_zero"] and rep["J"]["all_zero"]

    def test_embed_rejects_non_solution(self, tmp_path, capsys):
        real = RealADHMDatum(1, 2, [[1]], [[0]], [[1, 0]], [[1], [1]])
        f = write_json(tmp_path / "r.json", real.to_json())
        code, out = invoke(["adhm", "embed", f], capsys)
        assert code == 2
        assert "residual" in json.loads(out)["error"]["message"]

    def test_random_is_seeded_and_checkable(self, tmp_path, capsys):
        out_path = tmp_path / "d.json"
        code, _ = invoke(["adhm", "random", "-r", "2", "-c", "2",
                          "--seed", "7", "--output", str(out_path)], capsys)
        assert code == 0
        blob = json.loads(out_path.read_text(encoding="utf-8"))
        assert blob == random_stable_solution(2, 2, 7).to_json()
        code, out = invoke(["adhm", "check", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out)["classification"]["stable_everywhere"]

    def test_random_rejects_a_charge_below_one(self, capsys):
        for c in ("0", "-1"):
            code, out = invoke(["adhm", "random", "-r", "2", "-c", c], capsys)
            assert code == 2
            err = json.loads(out)["error"]
            assert err["type"] == "CLIError" and "c >= 1" in err["message"]

    def test_rank_audit(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 0).to_json())
        code, out = invoke(["adhm", "rank", f], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["rank"] == 3 and rep["full_rank"]
        assert rep["moduli_dimension"] == rep["expected_moduli_dimension"] == 8
        assert rep["ambient_parameters"] == 12
        assert rep["gauge_dimension"] == 1
        assert rep["stable_everywhere"]

    def test_rank_refuses_a_non_solution(self, tmp_path, capsys, monkeypatch):
        # a dense datum at the caps: refused before the derivative matrix is
        # built (its elimination ran for minutes), in the words of monad build
        import qadhm.adhm

        def never(d):
            raise AssertionError("derivative_rank ran on a non-solution")
        monkeypatch.setattr(qadhm.adhm, "derivative_rank", never)
        f = write_json(tmp_path / "d.json",
                       random_complex_datum(MAX_RANK, MAX_CHARGE, 0).to_json())
        message = ("datum does not solve the equations: residual(s) "
                   "[1, 2, 3] nonzero")
        for command in ("rank", "build"):
            group = "adhm" if command == "rank" else "monad"
            code, out = invoke([group, command, f], capsys)
            assert code == 2
            assert json.loads(out) == {"error": {"type": "CLIError",
                                                 "message": message}}


class TestMonadCommands:
    def test_build(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 1).to_json())
        code, out = invoke(["monad", "build", f], capsys)
        assert code == 0
        blob = json.loads(out)
        assert "alpha" in blob and "beta" in blob

    def test_build_non_solution_is_an_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_complex_datum(2, 1, 0).to_json())
        code, out = invoke(["monad", "build", f], capsys)
        assert code == 2
        assert "residual" in json.loads(out)["error"]["message"]

    def test_classify(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json", stable_not_semiregular().to_json())
        code, out = invoke(["monad", "classify", f], capsys)
        assert code == 0
        assert json.loads(out)["kind"] == "torsion_free"

    def test_classify_takes_no_seed(self, tmp_path, capsys):
        # the singular locus is exact: no point is sampled, so the command
        # has no seed to take
        for d in (stable_not_semiregular(), random_stable_solution(2, 2, 2)):
            f = write_json(tmp_path / "d.json", d.to_json())
            code, out = invoke(["monad", "classify", f], capsys)
            assert code == 0
            locus = json.loads(out)["singular_locus"]
            assert locus["dimension"] == 1 and locus["over"] is None
            with pytest.raises(SystemExit) as info:
                run(["monad", "classify", f, "--seed", "0"])
            assert info.value.code == 2
            assert "unrecognized arguments: --seed 0" in \
                capsys.readouterr().err

    def test_chern_prints_bare_values(self, capsys):
        code, out = invoke(["monad", "chern", "-r", "2", "-c", "1",
                            "-k", "-1"], capsys)
        assert code == 0
        assert out == "-1\n"
        for r, c, k in [(2, 1, 0), (3, 2, -1), (4, 4, 2)]:
            code, out = invoke(["monad", "chern", "-r", str(r), "-c", str(c),
                                "-k", str(k)], capsys)
            assert code == 0
            assert out.strip() == str(chi_twist(r, c, k))

    def test_chern_validates_sizes(self, capsys):
        code, out = invoke(["monad", "chern", "-r", "0", "-c", "1", "-k", "0"],
                           capsys)
        assert code == 2


class TestQCommands:
    def test_eigen_example(self, capsys):
        code, out = invoke(["q", "eigen", "-k", "1", "-l", "0"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["eigenvalue"] == {"-2": "1/1", "0": "1/1"}
        assert rep["verified_on_witness"]

    def test_eigen_other_convention(self, capsys):
        code, out = invoke(["q", "eigen", "-k", "1", "-l", "0",
                            "--p-choice", "qinv"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["eigenvalue"] == {"0": "1/1", "2": "1/1"}
        assert rep["verified_on_witness"]

    def test_normalize(self, capsys):
        code, out = invoke(["q", "normalize", "x21*x12"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["normal_form"] == str(parse_expr("q^2*x12*x21"))
        assert rep["degree"] == 2

    def test_partial_matches_library(self, capsys):
        code, out = invoke(["q", "partial", "det"], capsys)
        rep = json.loads(out)
        assert code == 0
        table = derive_table("q")
        want = {name: str(f)
                for name, f in zip(X_NAMES, partials(det_x(), table))}
        assert rep["partials"] == want

    def test_laplace(self, capsys):
        code, out = invoke(["q", "laplace", "x11*x22"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["laplacian"] == "1/1" and not rep["harmonic"]
        code, out = invoke(["q", "laplace", "x11"], capsys)
        assert json.loads(out)["harmonic"]

    def test_harmonic(self, capsys):
        code, out = invoke(["q", "harmonic", "-l", "1", "-m", "1", "-n", "-1"],
                           capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["element"] == str(basis_element(HarmonicIndex(1, 1, -1, 0)))
        assert rep["harmonic_part_is_harmonic"]
        code, out = invoke(["q", "harmonic", "-l", "1", "-m", "3", "-n", "1"],
                           capsys)
        assert code == 2
        code, out = invoke(["q", "harmonic", "-l", "1", "-m", "0", "-n", "1"],
                           capsys)
        assert code == 2

    def test_table_rules(self, capsys):
        code, out = invoke(["q", "table", "--p-choice", "q"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert len(rep["x_rules"]) == 16
        assert len(rep["wedge_rules"]) == 10  # pairs with g >= h
        assert rep["x_rules"]["dx11*x11"] == [
            {"coeff": {"2": "1/1"}, "left": "x11", "right": "dx11"}]
        assert rep["wedge_rules"]["dx11*dx11"] == []
        code, out2 = invoke(["q", "table", "--p-choice", "qinv"], capsys)
        assert code == 0
        assert json.loads(out2)["p_choice"] == "qinv"
        assert out != out2

    def test_penrose(self, tmp_path, capsys):
        f = write_json(tmp_path / "c.json", {"cocycle": [
            {"exponents": [1, 0, -2, -1], "coeff": "1"}]})
        code, out = invoke(["q", "penrose", f], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["image"] == "1/1*x11" and rep["harmonic"]

    def test_penrose_schema_errors(self, tmp_path, capsys):
        f = write_json(tmp_path / "c.json", {"cocycle": [
            {"exponents": [1, 0, 0, -3], "coeff": "1"}]})
        code, out = invoke(["q", "penrose", f], capsys)
        assert code == 2
        assert "cocycle" in json.loads(out)["error"]["message"]
        f = write_json(tmp_path / "e.json", {"cocycle": []})
        assert invoke(["q", "penrose", f], capsys)[0] == 2

    @pytest.mark.parametrize("first", [1.9, True, "1"], ids=repr)
    def test_penrose_refuses_non_integer_exponents(self, first, tmp_path,
                                                   capsys):
        # int() read each of these as 1: the command ran on [1, 0, -1, -2]
        item = {"exponents": [first, 0, -1, -2], "coeff": "1"}
        f = write_json(tmp_path / "c.json", {"cocycle": [item]})
        err = _error(["q", "penrose", f], capsys)
        assert err["type"] == "CLIError"
        assert err["message"].startswith("bad cocycle item")
        assert "exponents must be integers" in err["message"]

    def test_a_zero_denominator_is_a_schema_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "c.json", {"cocycle": [
            {"exponents": [1, 0, -2, -1], "coeff": "1/0"}]})
        code, out = invoke(["q", "penrose", f], capsys)
        assert code == 2
        assert "zero denominator" in json.loads(out)["error"]["message"]
        datum = random_stable_solution(2, 1, 4).to_json()
        datum["B11"][0][0] = "1/2-1/0*i"
        code, out = invoke(["adhm", "check",
                            write_json(tmp_path / "d.json", datum)], capsys)
        assert code == 2
        assert "zero denominator" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("text", ["\u0663", "1/\u0662"])
    def test_a_digit_of_another_script_is_a_schema_error(self, text, tmp_path,
                                                         capsys):
        f = write_json(tmp_path / "c.json", {"cocycle": [
            {"exponents": [1, 0, -2, -1], "coeff": text}]})
        datum = random_stable_solution(2, 1, 4).to_json()
        datum["B11"][0][0] = text
        for argv in (["q", "penrose", f],
                     ["adhm", "check", write_json(tmp_path / "d.json", datum)]):
            code, out = invoke(argv, capsys)
            assert code == 2
            assert ("malformed GaussRational string"
                    in json.loads(out)["error"]["message"])

    def test_expression_error_is_machine_readable(self, capsys):
        code, out = invoke(["q", "normalize", "x13"], capsys)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CLIError" and "x13" in err["message"]


class TestInstCommands:
    def test_verify_exit_codes(self, tmp_path, capsys):
        good = write_json(tmp_path / "g.json",
                          random_stable_solution(2, 2, 0).to_json())
        assert invoke(["inst", "verify", good], capsys)[0] == 0
        bad = write_json(tmp_path / "b.json",
                         random_complex_datum(2, 1, 1).to_json())
        code, out = invoke(["inst", "verify", bad], capsys)
        assert code == 1
        rep = json.loads(out)
        assert not rep["I"]["all_zero"]
        assert any(v["terms"] for v in rep["I"]["identities"].values())

    def test_curvature_report(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 4).to_json())
        code, out = invoke(["inst", "curvature", f], capsys)
        rep = json.loads(out)
        assert code == 0
        assert not rep["all_asd"]
        assert rep["sign_adjusted_defects"] == [[0, 0]]
        assert rep["entries"][2][2]["verdict"] == "zero"
        code, out2 = invoke(["inst", "curvature", f, "--p-choice", "qinv"],
                            capsys)
        assert code == 0 and json.loads(out2)["p_choice"] == "qinv"

    def test_curvature_requires_solution(self, tmp_path, capsys):
        # refused in the words of monad build and adhm rank, which name the
        # nonzero residuals
        f = write_json(tmp_path / "d.json",
                       random_complex_datum(2, 1, 2).to_json())
        code, out = invoke(["inst", "curvature", f], capsys)
        assert code == 2
        assert json.loads(out) == {"error": {
            "type": "CLIError",
            "message": "datum does not solve the equations: residual(s) "
                       "[1, 2, 3] nonzero"}}

    def test_slices_stable_passes(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 0).to_json())
        code, out = invoke(["inst", "slices", f, "--dmax", "2"], capsys)
        rep = json.loads(out)
        assert code == 0
        assert rep["all_surjective"] and len(rep["reports"]) == 12
        assert all(r["surjective"] for r in rep["reports"])

    def test_slices_costable_only_fails(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       dual_costable_solution(2, 1, 0).to_json())
        code, out = invoke(["inst", "slices", f, "--dmax", "0",
                            "--grid-size", "3"], capsys)
        rep = json.loads(out)
        assert code == 1
        assert not rep["all_surjective"]

    def test_slices_enforces_degree_cap(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 0).to_json())
        assert invoke(["inst", "slices", f, "--dmax", "9"], capsys)[0] == 2

    def test_slices_refuses_an_oversized_grid_at_once(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 3, 0).to_json())
        start = time.perf_counter()
        code, out = invoke(["inst", "slices", f, "--dmax", "1",
                            "--grid-size", str(MAX_GRID_SIZE + 1)], capsys)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert "grid_size" in json.loads(out)["error"]["message"]


def _harmonic(l, k=0):
    return ["q", "harmonic", "-l", str(l), "-m", "0", "-n", "0", "-k", str(k)]


def _eigen(l, k=1):
    return ["q", "eigen", "-k", str(k), "-l", str(l)]


def _random(r, c):
    return ["adhm", "random", "-r", str(r), "-c", str(c)]


class TestResourceCaps:
    # (argv one step over a cap, argv far over it, words of the message).
    # Far over the caps these commands ran for seconds to minutes; they
    # must be refused before any of that work starts.
    CASES = [
        (_harmonic(MAX_TWO_L + 2), _harmonic(200), "l must be at most"),
        (_harmonic(2, MAX_DET_POWER + 1), _harmonic(2, 64), "k at most"),
        (_eigen(MAX_TWO_L + 1), _eigen(200), "l must be at most"),
        (_eigen(0, MAX_DET_POWER + 1), _eigen(0, 64), "k at most"),
        (_random(MAX_RANK + 1, 1), _random(500, 1), "r must be at most"),
        (_random(2, MAX_CHARGE + 1), _random(2, 40), "c at most"),
    ]

    @pytest.mark.parametrize("over,far,words", CASES)
    def test_refused_at_once(self, over, far, words, capsys):
        for argv in (over, far):
            start = time.perf_counter()
            code, out = invoke(argv, capsys)
            assert time.perf_counter() - start < 2
            assert code == 2
            err = json.loads(out)["error"]
            assert err["type"] == "CLIError" and words in err["message"]

    def test_penrose_refuses_a_cocycle_over_the_l_cap(self, tmp_path,
                                                      capsys):
        # 2l = ex + ey; the refusal comes before any harmonic() call, also
        # when an admissible item precedes the oversized one.
        small = {"exponents": [1, 0, -2, -1], "coeff": "1"}
        for two_l in (MAX_TWO_L + 1, 200):
            big = {"exponents": [two_l, 0, -1, -1 - two_l], "coeff": "1"}
            f = write_json(tmp_path / "c.json", {"cocycle": [small, big]})
            start = time.perf_counter()
            code, out = invoke(["q", "penrose", f], capsys)
            assert time.perf_counter() - start < 2
            assert code == 2
            err = json.loads(out)["error"]
            assert err["type"] == "CLIError"
            assert "l must be at most" in err["message"]
        at_cap = {"exponents": [0, MAX_TWO_L, -1, -1 - MAX_TWO_L]}
        f = write_json(tmp_path / "c.json", {"cocycle": [at_cap]})
        assert invoke(["q", "penrose", f], capsys)[0] == 0

    def test_penrose_refuses_a_cocycle_over_the_item_cap(self, tmp_path,
                                                         capsys):
        # every item costs a harmonic() call: 3,000 items with 2l <= 30 ran
        # for minutes.  The refusal names the cap and comes before any call.
        item = {"exponents": [1, 0, -2, -1], "coeff": "1"}
        for n in (MAX_COCYCLE_ITEMS + 1, 3000):
            f = write_json(tmp_path / "c.json", {"cocycle": [item] * n})
            start = time.perf_counter()
            code, out = invoke(["q", "penrose", f], capsys)
            assert time.perf_counter() - start < 2
            assert code == 2
            err = json.loads(out)["error"]
            assert err["type"] == "CLIError"
            assert f"1 to {MAX_COCYCLE_ITEMS} items" in err["message"]
        f = write_json(tmp_path / "c.json",
                       {"cocycle": [item] * MAX_COCYCLE_ITEMS})
        code, out = invoke(["q", "penrose", f], capsys)
        assert code == 0
        assert json.loads(out)["image"] == f"{MAX_COCYCLE_ITEMS}/1*x11"

    def test_harmonic_refuses_a_negative_det_power(self, capsys):
        # the refusal names the option, as q eigen's does, and comes before
        # any library module is loaded
        for k in (-1, -7):
            assert _error(_harmonic(2, k), capsys) == {
                "type": "CLIError",
                "message": "-k (the det power) must be nonnegative"}
        proc = run_python(["-c", _LOADED_BY_RUN, *_harmonic(2, -1)])
        rep = json.loads(proc.stdout)
        assert rep["code"] == 2
        assert not {"qadhm.scalars", "qadhm.qspacetime",
                    "qadhm.qcalculus"} & set(rep["new"])

    def test_harmonic_refuses_a_negative_l(self, capsys):
        # the refusal names the option, not the library's two_l field
        for l in (-2, -1):
            assert _error(["q", "harmonic", "-l", str(l), "-m", "0",
                           "-n", "0"], capsys) == {
                "type": "CLIError",
                "message": "-l (twice l) must be nonnegative"}

    @pytest.mark.parametrize("l,m,n", [(1, 0, 1), (2, 1, 0)])
    def test_harmonic_refuses_indices_of_another_parity(self, l, m, n,
                                                        capsys):
        # the refusal names the options and the rule for doubled indices,
        # not the library's "congruent to l mod 1"
        assert _error(["q", "harmonic", "-l", str(l), "-m", str(m),
                       "-n", str(n)], capsys) == {
            "type": "CLIError",
            "message": "-m and -n (twice m and n) must have the parity of -l"}

    @pytest.mark.parametrize("argv", [["adhm", "check"], ["monad", "build"],
                                      ["q", "penrose"]], ids=" ".join)
    def test_deeply_nested_json_is_a_schema_error(self, argv, tmp_path,
                                                  capsys):
        # json.load recurses once per level: this file raised RecursionError,
        # a traceback with exit 1, which is reserved for a failed identity
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        err = _error([*argv, str(path)], capsys)
        assert err["type"] == "CLIError" and str(path) in err["message"]

    @pytest.mark.parametrize("command", ["normalize", "partial", "laplace"])
    def test_expression_caps(self, command, capsys):
        # 30 dense linear factors, 539 characters: `q normalize` ran for
        # about a minute on it before the caps
        dense = "*".join(["(x11+x12+x21+x22)"] * 30)
        long_sum = " + ".join(["x11"] * 40)
        high = "*".join(["x22"] * (MAX_EXPR_DEGREE - 1) + ["det"])
        at_cap = "*".join(["x22"] * (MAX_EXPR_DEGREE - 2) + ["det"])
        for expr, words in [(dense, "characters"), (long_sum, "characters"),
                            (high, f"degree above {MAX_EXPR_DEGREE}"),
                            (f"({at_cap})*({at_cap})", "degree above")]:
            start = time.perf_counter()
            code, out = invoke(["q", command, expr], capsys)
            assert time.perf_counter() - start < 2
            assert code == 2
            err = json.loads(out)["error"]
            assert err["type"] == "CLIError" and words in err["message"]

    def test_expression_caps_admit_the_benchmark_sizes(self, capsys):
        # the benchmark draws sums of up to 4 words of degree up to 6
        word = "*".join(["x22", "x21", "x12", "x11", "x22", "x21"])
        expr = " - ".join(f"(1+q)*{word}" for _ in range(4))
        assert len(expr) <= 130 <= MAX_EXPR_LENGTH
        assert invoke(["q", "laplace", expr], capsys)[0] == 0
        at_caps = "*".join(["x11"] * (MAX_EXPR_DEGREE - 1) + ["1"])
        at_caps += " " * (MAX_EXPR_LENGTH - len(at_caps))
        assert len(at_caps) == MAX_EXPR_LENGTH
        assert invoke(["q", "normalize", at_caps], capsys)[0] == 0

    def test_caps_admit_the_documented_examples(self, capsys):
        assert MAX_TWO_L >= 4 and MAX_DET_POWER >= 2
        assert MAX_RANK >= 3 and MAX_CHARGE >= 3
        code, out = invoke(_eigen(MAX_TWO_L, 1), capsys)
        assert code == 0 and json.loads(out)["verified_on_witness"]


def _zero_datum_json(r, c):
    """A complex datum of zero blocks, as JSON, built without a Matrix."""
    def zeros(rows, cols):
        return [["0"] * cols for _ in range(rows)]
    obj = {"kind": "complex", "r": r, "c": c}
    for name in ("B11", "B12", "B21", "B22"):
        obj[name] = zeros(c, c)
    for name in ("i1", "i2"):
        obj[name] = zeros(c, r)
    for name in ("j1", "j2"):
        obj[name] = zeros(r, c)
    return obj


class _Built(Exception):
    """Raised by a Matrix built where none may be."""


class TestDatumSizeGuard:
    """A datum file over the r or c cap exits 2 before any matrix or
    operator is built."""

    @pytest.mark.parametrize("argv", [["adhm", "check"], ["inst", "slices"]],
                             ids=" ".join)
    @pytest.mark.parametrize("r,c", [(1, MAX_CHARGE + 1),
                                     (MAX_RANK + 1, 1)])
    def test_refused_before_any_matrix(self, argv, r, c, tmp_path, capsys,
                                       monkeypatch):
        f = write_json(tmp_path / "big.json", _zero_datum_json(r, c))

        def refuse(*args, **kwargs):
            raise _Built()

        monkeypatch.setattr(Matrix, "__init__", refuse)
        code, out = invoke([*argv, f], capsys)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CLIError"
        assert err["message"] == (f"{f}: r must be at most {MAX_RANK} and "
                                  f"c at most {MAX_CHARGE}")

    def test_the_caps_themselves_are_admitted(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json", _zero_datum_json(1, MAX_CHARGE))
        code, out = invoke(["adhm", "check", f], capsys)
        assert code == 0 and json.loads(out)["c"] == MAX_CHARGE

    @pytest.mark.parametrize("field", ["c", "r"])
    @pytest.mark.parametrize("command,datum", [
        ("check", random_stable_solution(2, 1, 4)),
        ("embed", RealADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]])),
    ], ids=["check", "embed"])
    def test_a_boolean_count_is_refused_by_name(self, command, datum, field,
                                                tmp_path, capsys):
        # JSON true loads as a bool, which is an int too: it must not pass
        # for 1
        obj = datum.to_json()
        obj[field] = True
        f = write_json(tmp_path / "d.json", obj)
        code, out = invoke(["adhm", command, f], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "CLIError",
            "message": f"{f}: {field} must be an integer, not a boolean"}

    @pytest.mark.parametrize("datum,block", [
        (random_stable_solution(2, 1, 4), "B11"),
        (RealADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]]), "B1"),
    ], ids=["complex", "real"])
    def test_a_boolean_entry_is_refused(self, datum, block, tmp_path,
                                        capsys):
        # a JSON true entry was read as 1
        obj = datum.to_json()
        obj[block] = [[True]]
        f = write_json(tmp_path / "d.json", obj)
        assert _error(["adhm", "check", f], capsys) == {
            "type": "CLIError",
            "message": f"{f}: {block} must be a 1x1 matrix: cannot coerce "
                       "True to a Gaussian rational"}

    @pytest.mark.parametrize("datum,block,size,value", [
        (_zero_datum_json(1, 2), "B11", 2, ["12", "34"]),
        (_zero_datum_json(1, 1), "B11", 1, "1"),
        (_zero_datum_json(1, 1), "i1", 1, [{"1": 0}]),
        (RealADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]]).to_json(), "B1", 1,
         ["1"]),
    ], ids=["string-rows", "string-block", "object-row", "real"])
    def test_a_block_that_is_no_list_of_lists_is_refused(
            self, datum, block, size, value, tmp_path, capsys):
        # a string row was read character by character and an object row
        # by its keys, so each of these data passed for a solution
        f = write_json(tmp_path / "d.json", {**datum, block: value})
        assert _error(["adhm", "check", f], capsys) == {
            "type": "CLIError",
            "message": f"{f}: {block} must be a {size}x{size} matrix: "
                       "expected a list of rows, each a list"}

    def test_a_datum_that_is_no_object_is_an_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "list.json", [1, 2])
        code, out = invoke(["adhm", "check", f], capsys)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "CLIError"


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path, capsys):
        f = write_json(tmp_path / "d.json",
                       random_stable_solution(2, 1, 5).to_json())
        runs = [invoke(["inst", "slices", f, "--dmax", "1"], capsys)[1]
                for _ in range(2)]
        assert runs[0] == runs[1]
        runs = [invoke(["q", "table"], capsys)[1] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_console_entry_point(self):
        # Run what pip's generated `qadhm` wrapper runs for the target that
        # pyproject.toml declares, without needing the script on PATH.
        target = declared_script("qadhm")
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr, None)
        assert entry is qadhm.cli.main, (
            f"[project.scripts] qadhm = {target!r} is not qadhm.cli.main")
        wrapper = (f"import sys; sys.argv[0] = 'qadhm'; "
                   f"from {module} import {attr}; sys.exit({attr}())")
        proc = run_python(["-c", wrapper, "q", "eigen", "-k", "1", "-l", "0"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["eigenvalue"] == {"-2": "1/1",
                                                         "0": "1/1"}

    @pytest.mark.skipif(shutil.which("qadhm") is None,
                        reason="no installed qadhm script on PATH")
    def test_installed_console_script(self):
        proc = subprocess.run(
            [shutil.which("qadhm"), "q", "eigen", "-k", "1", "-l", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["eigenvalue"] == {"-2": "1/1",
                                                         "0": "1/1"}

    def test_module_invocation(self, tmp_path, capsys):
        # both module entry points end the process as in-process run()
        # returns: the same stdout and exit code, for each exit code
        non_solution = write_json(tmp_path / "d.json",
                                  random_complex_datum(2, 1, 3).to_json())
        for code, argv in ((0, ["monad", "chern", "-r", "2", "-c", "1",
                                "-k", "-1"]),
                           (1, ["adhm", "check", non_solution]),
                           (2, ["q", "eigen", "-k", "-1", "-l", "2"])):
            want = invoke(argv, capsys)
            assert want[0] == code
            for module in ("qadhm.cli", "qadhm"):
                proc = run_python(["-m", module, *argv])
                assert (proc.returncode, proc.stdout) == want, (module, argv)
                assert proc.stderr == "", (module, argv)

    def test_module_invocation_compiles_cli_once(self):
        # run as ``__main__``, cli is shared with the group module that
        # imports from it: no second ``qadhm.cli`` is imported
        proc = run_python(["-X", "importtime", "-m", "qadhm.cli", "monad",
                           "chern", "-r", "2", "-c", "1", "-k", "-1"])
        assert proc.returncode == 0, proc.stderr
        imported = {line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()}
        assert "qadhm.cli_monad" in imported
        assert "qadhm.cli" not in imported


# A child that runs ``cli.main`` with os._exit wrapped by a spy and one
# atexit handler registered first; a SystemExit out of ``main`` is marked
# too.  Each marker goes straight to the stdout descriptor, past the stream's
# buffer, so the markers land after the report only if the report was
# flushed before them.  The first argument names the ``sys`` hook to set
# before ``main`` (``settrace`` or ``setprofile``), or is "-" for none.
_SPIED_MAIN = """
import atexit, os, sys
from qadhm import cli
hook = sys.argv.pop(1)
atexit.register(os.write, 1, b"<atexit>")
_exit = os._exit
os._exit = lambda code: (os.write(1, b"<_exit>"), _exit(code))
if hook != "-":
    getattr(sys, hook)(lambda *args: None)
try:
    cli.main()
except SystemExit:
    os.write(1, b"<SystemExit>")
    raise
"""

_FULL = "/dev/full"
_EIGEN = ["q", "eigen", "-k", "1", "-l", "2"]
_EIGEN_ERROR = ["q", "eigen", "-k", "-1", "-l", "2"]     # exit 2
# the child's PYTHONUNBUFFERED, set or unset whatever the parent's is
_BUFFERING = pytest.mark.parametrize("unbuffered", ["1", None],
                                     ids=["unbuffered", "buffered"])
_REPORT_OR_ERROR = pytest.mark.parametrize("argv", [_EIGEN, _EIGEN_ERROR],
                                           ids=["report", "error"])


class TestProcessExit:
    """Once the report is out, ``main`` runs the atexit handlers, flushes
    the standard streams and ends with ``os._exit``, skipping the
    interpreter's teardown; the exit code is ``run``'s.  Under a tracer or a
    profiler, and when a flush fails, it leaves through ``sys.exit``."""

    @_BUFFERING
    @_REPORT_OR_ERROR
    def test_exit_after_the_report_and_the_handlers(self, argv, unbuffered,
                                                    capsys):
        code, out = invoke(argv, capsys)
        proc = run_python(["-c", _SPIED_MAIN, "-", *argv],
                          PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == out + "<atexit><_exit>"

    @pytest.mark.parametrize("argv, code, tail", [
        (_EIGEN, 0, "<atexit><_exit>"), (_EIGEN_ERROR, 2, "<atexit><_exit>"),
        # a usage error leaves main through argparse's SystemExit, and the
        # interpreter's exit runs the handler
        (_EIGEN[:-2], 2, "<SystemExit><atexit>")],
        ids=["report", "error", "usage"])
    def test_atexit_handlers_still_run(self, argv, code, tail):
        proc = run_python(["-c", _SPIED_MAIN, "-", *argv])
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.endswith(tail)
        assert proc.stdout.count("<atexit>") == 1

    @pytest.mark.parametrize("hook", ["settrace", "setprofile"])
    @_REPORT_OR_ERROR
    def test_traced_or_profiled_leaves_through_system_exit(self, hook, argv,
                                                           capsys):
        # cProfile, pdb and coverage report after the module returns
        code, out = invoke(argv, capsys)
        proc = run_python(["-c", _SPIED_MAIN, hook, *argv])
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == out + "<SystemExit><atexit>"

    @pytest.mark.skipif(not os.path.exists(_FULL),
                        reason=f"no {_FULL} on this system")
    def test_a_failed_flush_is_left_to_the_interpreter(self, tmp_path,
                                                       capsys):
        # the report goes to --output; a handler then writes to a buffered
        # stdout that cannot be flushed: main falls back to sys.exit, the
        # interpreter's flush fails as well and exits 120, as it does for any
        # script, and the handlers, already run and cleared, do not run again
        out = invoke(_EIGEN, capsys)[1]
        report = tmp_path / "r.json"
        late = ("import atexit, os, sys\n"
                "from qadhm import cli\n"
                "atexit.register(os.write, 2, b'<atexit>')\n"
                "atexit.register(sys.stdout.write, 'late')\n"
                "cli.main()\n")
        with open(_FULL, "w", encoding="utf-8") as full:
            proc = run_python(["-c", late, *_EIGEN, "--output", str(report)],
                              stdout=full, PYTHONUNBUFFERED=None)
        assert proc.returncode == 120, proc.stderr
        assert proc.stderr.count("<atexit>") == 1
        assert "No space left on device" in proc.stderr
        assert report.read_text(encoding="utf-8") == out

    @pytest.mark.skipif(not os.path.exists(_FULL),
                        reason=f"no {_FULL} on this system")
    @_BUFFERING
    @_REPORT_OR_ERROR
    def test_stdout_that_cannot_be_written(self, argv, unbuffered, capsys):
        # a full stdout is an error object on stderr and exit 2, not a
        # traceback (exit 1 is a failed identity) nor the interpreter's exit
        # 120 for a flush that fails at shutdown.  A command that fails
        # itself reports its own error there.
        code, out = invoke(argv, capsys)
        with open(_FULL, "w", encoding="utf-8") as full:
            proc = run_python(["-m", "qadhm.cli", *argv], stdout=full,
                              PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 2
        if code == 2:
            assert proc.stderr == out
        else:
            err = json.loads(proc.stderr)["error"]
            assert err["type"] == "CLIError"
            assert err["message"].startswith(
                "cannot write stdout: [Errno 28]")

    @pytest.mark.skipif(os.name != "posix", reason="needs os.execv")
    @_REPORT_OR_ERROR
    def test_closed_stdout(self, argv, capsys, tmp_path):
        # with its descriptor closed, sys.stdout is None: the report cannot
        # be written, which is exit 2 with the error object on stderr; a
        # report to --output is still written
        code, out = invoke(argv, capsys)
        closed = ("import os, sys\n"
                  "os.close(1)\n"
                  "os.execv(sys.executable, [sys.executable, '-m', "
                  "'qadhm.cli', *sys.argv[1:]])\n")
        proc = run_python(["-c", closed, *argv])
        assert (proc.returncode, proc.stdout) == (2, "")
        if code == 2:
            assert proc.stderr == out
        else:
            assert json.loads(proc.stderr) == {"error": {
                "type": "CLIError",
                "message": "cannot write stdout: it is closed"}}
            report = tmp_path / "r.json"
            proc = run_python(["-c", closed, *argv, "--output", str(report)])
            assert (proc.returncode, proc.stderr) == (0, "")
            assert report.read_text(encoding="utf-8") == out

    def test_profiling_one_command(self, capsys):
        # cProfile runs the module as __main__ without registering it: the
        # command still runs, and the profile follows the report
        code, out = invoke(_EIGEN, capsys)
        proc = run_python(["-m", "cProfile", "-m", "qadhm.cli", *_EIGEN])
        assert (code, proc.returncode) == (0, 0), proc.stderr
        assert proc.stdout.startswith(out)
        assert "function calls" in proc.stdout[len(out):]


# What a child process reports: the modules that importing qadhm.cli and
# running one command added to sys.modules.
_LOADED_BY_RUN = """
import contextlib, io, json, sys
before = set(sys.modules)
from qadhm import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.run(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""

# argv -> the qadhm modules it loads.  DATUM, REAL and COCYCLE stand for a
# complex solution, a real solution and a cocycle file.
DATUM, REAL, COCYCLE = "<datum>", "<real>", "<cocycle>"
_MATRIX = {"exactcore", "scalars"}
_ADHM = {"cli", "cli_adhm", "adhm", "krylov"} | _MATRIX
_MONAD = {"cli", "cli_monad", "monad"} | _MATRIX
_Q = {"cli", "cli_q", "scalars", "qspacetime", "qcalculus"}
_Q_EXPR = _Q | {"expr"}
_INST = {"cli", "cli_inst", "qspacetime", "qinstanton"} | _MATRIX
_MODULES_BY_COMMAND = {
    ("--help",): {"cli", "usage", "cli_adhm", "cli_monad", "cli_q",
                  "cli_inst"},
    ("adhm", "check", DATUM): _ADHM,
    ("adhm", "embed", REAL): {"cli", "cli_adhm", "real"} | _MATRIX,
    ("adhm", "random", "-r", "2", "-c", "1"): _ADHM,
    ("adhm", "rank", DATUM): _ADHM | {"echelon"},
    ("monad", "build", DATUM): _MONAD,
    ("monad", "classify", DATUM): _MONAD | {"adhm", "krylov"},
    ("monad", "chern", "-r", "2", "-c", "1", "-k", "0"):
        {"cli", "cli_monad", "chern"},
    ("q", "normalize", "x11*x22"): {"cli", "cli_q", "expr", "scalars",
                                    "qspacetime"},
    ("q", "partial", "x11*x22"): _Q_EXPR,
    ("q", "laplace", "x11*x22"): _Q_EXPR,
    ("q", "harmonic", "-l", "1", "-m", "1", "-n", "-1"): _Q,
    ("q", "eigen", "-k", "1", "-l", "2"): _Q,
    ("q", "table"): _Q,
    ("q", "penrose", COCYCLE): _Q,
    ("inst", "verify", DATUM): _INST,
    ("inst", "slices", DATUM, "--dmax", "0", "--grid-size", "2"):
        {"cli", "cli_inst", "krylov", "slices"} | _MATRIX,
    ("inst", "curvature", DATUM): _INST | {"qcalculus", "qforms"},
}


def _pinned_argv(command, tmp_path):
    """A ``_MODULES_BY_COMMAND`` key with its file placeholders written."""
    files = {
        DATUM: random_stable_solution(2, 1, 4).to_json(),
        REAL: RealADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]]).to_json(),
        COCYCLE: {"cocycle": [{"exponents": [1, 0, -2, -1], "coeff": "1"}]},
    }
    return [write_json(tmp_path / "in.json", files[a]) if a in files else a
            for a in command]


# the only commands that load the expression parser and the forms
_WITH_EXPR = {("q", "normalize"), ("q", "partial"), ("q", "laplace")}
# the commands that build no matrix: the q commands need only the scalars
# (the calculus tables are stored, not solved), and monad chern computes in
# ints
_WITHOUT_MATRIX = {("q", s) for s in ("normalize", "partial", "laplace",
                                      "harmonic", "eigen", "table",
                                      "penrose")} | {("monad", "chern")}
_WITH_FORMS = {("inst", "curvature")}
# the only command that eliminates, and so loads ``echelon``: the derivative
# rank (``classify`` of a stable datum takes no kernel, since it has no
# witness to find, and the seeded generator tests its two top rows of i by
# their 2 x 2 minors)
_WITH_ECHELON = {("adhm", "rank")}
# the modules that only one command loads: the Chern characters, the beta_P
# verdicts and the real embedding
_OWN_MODULES = {"chern": ("monad", "chern"), "slices": ("inst", "slices"),
                "real": ("adhm", "embed")}
# the commands that never run the taxonomy, which is in adhm.  ``inst
# slices`` is one of them: it decides beta_P from the Krylov closure and the
# stable side of the minor gcd, both in krylov, and builds no operator.
_WITHOUT_ADHM = {("adhm", "embed"), ("inst", "verify"), ("inst", "curvature"),
                 ("inst", "slices"), ("monad", "build"), ("monad", "chern")}
# command -> the most lines its qadhm modules may sum to.  With no bytecode
# cache every loaded module is compiled on every call; each bound is the
# count when it was pinned plus at most 5%, rounded down.
_LINE_BUDGET = {
    ("--help",): 573,
    ("adhm", "check"): 1907,
    ("adhm", "embed"): 1368,
    ("adhm", "random"): 1907,
    ("adhm", "rank"): 2121,
    ("monad", "build"): 1464,
    ("monad", "classify"): 2059,
    ("monad", "chern"): 276,
    ("q", "normalize"): 1566,
    ("q", "partial"): 2052,
    ("q", "laplace"): 2052,
    ("q", "harmonic"): 1918,
    ("q", "eigen"): 1918,
    ("q", "table"): 1918,
    ("q", "penrose"): 1918,
    ("inst", "verify"): 2024,
    ("inst", "slices"): 1779,
    ("inst", "curvature"): 2685,
}


class TestImportDiscipline:
    """Each command imports only the library modules its group runs, and
    only its own group's handler module: with no bytecode cache every
    imported module is compiled on every call."""

    def test_every_subcommand_is_pinned(self):
        pinned = {c[:2] for c in _MODULES_BY_COMMAND if c[0] in _SUBCOMMANDS}
        assert pinned == {(g, s) for g, subs in _SUBCOMMANDS.items()
                          for s in subs}

    @pytest.mark.parametrize("command", sorted(_MODULES_BY_COMMAND),
                             ids=" ".join)
    def test_modules_loaded(self, command, tmp_path):
        proc = run_python(["-c", _LOADED_BY_RUN,
                           *_pinned_argv(command, tmp_path)])
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["code"] == 0
        assert "dataclasses" not in rep["new"]
        loaded = {m.partition(".")[2] for m in rep["new"]
                  if m.startswith("qadhm.")}
        assert loaded == _MODULES_BY_COMMAND[command]
        if command[0] in _SUBCOMMANDS:
            assert {m for m in loaded if m.startswith("cli_")} \
                == {f"cli_{command[0]}"}
        if command[:2] in _WITHOUT_ADHM:
            assert "adhm" not in loaded
        if command[:2] in _WITHOUT_MATRIX:
            assert "exactcore" not in loaded
        assert ("expr" in loaded) == (command[:2] in _WITH_EXPR)
        assert ("qforms" in loaded) == (command[:2] in _WITH_FORMS)
        assert ("echelon" in loaded) == (command[:2] in _WITH_ECHELON)
        for module, owner in _OWN_MODULES.items():
            assert (module in loaded) == (command[:2] == owner), module
        # no command makes a Fraction, so none loads ``fractions`` (which
        # imports ``decimal``), and no module imports ``__future__``
        assert not {"fractions", "decimal", "__future__"} & set(rep["new"])
        # argparse, which imports gettext and locale, is loaded for help and
        # usage errors only
        assert (not {"argparse", "gettext", "locale"} & set(rep["new"])) \
            == (command != ("--help",))

    def test_module_entry_point_imports_no_argparse(self):
        proc = run_python(["-X", "importtime", "-m", "qadhm.cli", "q",
                           "eigen", "-k", "1", "-l", "2"])
        assert proc.returncode == 0, proc.stderr
        imported = {line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()}
        assert "qadhm.cli_q" in imported
        assert not {"argparse", "gettext", "locale"} & imported

    def test_exactcore_loads_echelon_when_qrat_is_read(self):
        proc = run_python(["-c", "import sys\n"
                           "from qadhm import exactcore\n"
                           "print('qadhm.echelon' in sys.modules)\n"
                           "cls = exactcore.QRat\n"
                           "print('qadhm.echelon' in sys.modules, "
                           "cls is sys.modules['qadhm.echelon'].QRat)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True"]

    def test_every_command_has_a_line_budget(self):
        assert set(_LINE_BUDGET) == {c[:2] for c in _MODULES_BY_COMMAND}

    @pytest.mark.parametrize("command", sorted(_MODULES_BY_COMMAND),
                             ids=" ".join)
    def test_compile_budget(self, command):
        # the modules are those test_modules_loaded pins for the command
        lines = sum(len((SRC / f"{m}.py").read_text(encoding="utf-8")
                        .splitlines()) for m in _MODULES_BY_COMMAND[command])
        assert lines <= _LINE_BUDGET[command[:2]]


_SUBCOMMANDS = {
    "adhm": ["check", "embed", "random", "rank"],
    "monad": ["build", "classify", "chern"],
    "q": ["normalize", "partial", "laplace", "harmonic", "eigen", "table",
          "penrose"],
    "inst": ["verify", "curvature", "slices"],
}


# sha256 of the ``--help`` output of each level (the key is the argv before
# ``--help``) at 80 columns, so that assembling the parser from the group
# modules cannot change a byte of it.  Python 3.11's argparse formatted them.
_HELP_SHA256 = {
    "":
        "bea214fbb80a4301d9b21f34df6015a018710ee60a3804d467f7211c1fb61067",
    "adhm":
        "8761fbc99cf366cc89178fae8b9161bf31ce1f0e1682e52b1806bd81b6926c96",
    "monad":
        "f876a51ca15b45fe62d794fde8fc8f0da97bace59debba8762da7fa0fe72ec3a",
    "q":
        "d32cb3cc2f782d1ecbb913a43031c22a207072d18b3361b56f99d2b185633c72",
    "inst":
        "22ba5d3e5fdbd3a520b90af604762be8cd5206d897e6f149086ba97d0636d098",
    "adhm check":
        "ca4c35dbeb04dc973bfa998272317a68ab2d08b956c9545052a67ad2da5107b0",
    "adhm embed":
        "4cf28084b1ffa7e8092f8b5fa099fa655a54599a8d39a5b5bd909d592195766e",
    "adhm random":
        "76fe9010f3fa5a36ed1e2f73502302c1cb7e02a4508fa6d8ca470916e9cc6e08",
    "adhm rank":
        "8729f77516d619bb341d19d9762186f1dd10714200af7138cc2d393cf052e055",
    "monad build":
        "e24092f433323c69fe02a190cf1f0a5117a16c5311ce336110720852d7a7692a",
    "monad classify":
        "b50f4c139b3dd063997b199205594be9494cc023e68bc8d92850f110d7eec426",
    "monad chern":
        "c26673cb1c887a4830296c7cc91bd06fd80d01e4243b61e82c4ad1b54ba3d1ad",
    "q normalize":
        "dd936e2397fd68ee0d19378a482b34e487cb7f97cee6079651b5a091417e91ed",
    "q partial":
        "c25d8c410ba3259b82c2af78781884d2faea144f4b013b09784393c19d67bb69",
    "q laplace":
        "2ea3ae59f805889de657855d6fdf5580a2a37b939e2597c33ccf2faf390a52b1",
    "q harmonic":
        "c67e9448bf2d2531cb15936719f945fd211ce1a43aa47582ba1212e9ba36aa6e",
    "q eigen":
        "95fb105a6c300296352a7e1e6f60ee628080b5a3878f1ee742b256cceb52fba9",
    "q table":
        "ac3d3be390043a513923f800013f5015e771bf5dc0f3e935f625435c2f4e58a0",
    "q penrose":
        "0b4fa1cfc950ebe3350d3daf1c692015bfa5ad8b5883fafb9cfd08d0e77f2043",
    "inst verify":
        "0624b016acf3c1ec4ddb797055f18dd239da7b9dcaca386e02d534b02b75f4bc",
    "inst curvature":
        "7c0ae65ca00af85fa58bbb0ec4e268b46aaf28640ff2ca46dfd233ac7f1b75a2",
    "inst slices":
        "f150f18551aad5755c2ff24a0f34b7b35a37bd2e4059fe71a1d2280a102494d1",
}


class TestHelp:
    """--help at every level exits 0 and lists every subcommand."""

    @staticmethod
    def help_text(argv, capsys):
        with pytest.raises(SystemExit) as info:
            run([*argv, "--help"])
        assert info.value.code == 0
        return capsys.readouterr().out

    @staticmethod
    def listed(text):
        return re.search(r"\{([\w,]+)\}", text).group(1).split(",")

    def test_top_level(self, capsys):
        out = self.help_text([], capsys)
        assert self.listed(out) == list(_SUBCOMMANDS)
        for group in _SUBCOMMANDS:
            assert re.search(rf"^ +{group} +\S", out, re.M), group
        assert "Expression grammar" in out

    @pytest.mark.parametrize("group", list(_SUBCOMMANDS))
    def test_groups(self, group, capsys):
        out = self.help_text([group], capsys)
        assert self.listed(out) == _SUBCOMMANDS[group]
        for sub in _SUBCOMMANDS[group]:
            assert re.search(rf"^ +{sub} +\S", out, re.M), sub
            assert self.help_text([group, sub], capsys).startswith(
                f"usage: qadhm {group} {sub}")

    def test_every_level_is_pinned(self):
        assert set(_HELP_SHA256) == {""} | set(_SUBCOMMANDS) | {
            f"{g} {s}" for g, subs in _SUBCOMMANDS.items() for s in subs}

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the digests pin Python 3.11's argparse")
    @pytest.mark.parametrize("level", sorted(_HELP_SHA256))
    def test_byte_identical(self, level, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        out = self.help_text(level.split(), capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == _HELP_SHA256[level]


def _outcome(argv):
    """(exit code, stdout, stderr) of ``run(argv)``, argparse exits
    included.  It captures by itself, since hypothesis tests take no
    capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_PARSER_ARGVS = (
    [["--help"], [], ["nosuch"], ["q", "nosuch"], ["q", "laplace"],
     ["adhm", "check"], ["q", "laplace", "x11", "--p-choice", "p"],
     ["adhm", "random", "-r", "two", "-c", "1"],
     ["q", "normalize", "x11", "extra"],
     ["q", "normalize", "x21*x12"], ["q", "eigen", "-k", "1"],
     ["q", "-h", "eigen"],
     ["monad", "chern", "-r", "2", "-c", "1", "-k", "-1"],
     # one line for each kind of line the reader declines
     ["q", "eigen", "-k", "1", "-l", "2", "-h"], ["q", "table", "--p-ch", "q"],
     ["q", "table", "--p-choice=qinv"], ["adhm", "random", "-r2", "-c", "1"],
     ["q", "normalize", "--", "x11"], ["q", "table", "--output", "-x"],
     ["q", "normalize", "-x11"], ["q", "eigen", "-k", "1", "-l", "-1.5"],
     ["q", "table", "--p-choice", "q", "--p-choice", "qinv"],
     ["monad", "chern", "-r", "2", "-c", "1", "-k", "1_0"]]
    + [[group, "--help"] for group in _SUBCOMMANDS]
    + [[group, sub, "--help"] for group, subs in _SUBCOMMANDS.items()
       for sub in subs])


# the full parser, built once for the examples of a hypothesis test that
# patches nothing: parse_args leaves a parser as it was
_FULL_PARSER = functools.cache(build_parser)
_INTS = st.integers(-40, 40).map(str)
_STRINGS = st.sampled_from(["x11*x22", "in.json", "q^-1", "", "-3", "0"])
# values argparse must judge: ints that int() reads, words, dashes, choices
_ODD_VALUES = st.sampled_from(["two", "1.5", "+3", " 4", "1_0", "-x", "-",
                               "--5", "-1.5", "q", "qinv", "p", "--output"])
_MUTATIONS = ("drop", "repeat", "value", "equals", "attached", "abbreviate",
              "extra", "dashes", "help", "group", "command")


def _value(opts):
    if "choices" in opts:
        return st.sampled_from(opts["choices"])
    return _INTS if opts.get("type") is int else _STRINGS


@st.composite
def _command_lines(draw, well_formed):
    """A command line built from a ``COMMANDS`` table: every required
    argument, some optional ones, in any order, with values of the right
    type.  Unless ``well_formed``, up to two mutations may break the line as
    ``_MUTATIONS`` names them."""
    group = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    command = draw(st.sampled_from(_SUBCOMMANDS[group]))
    chunks = []
    for (name,), opts in (qadhm.cli.OUTPUT,
                          *qadhm.cli.commands(group)[command][2]):
        if name[0] == "-" and not opts.get("required") and draw(st.booleans()):
            continue
        value = draw(_value(opts))
        chunks.append([name, value] if name[0] == "-" else [value])
    chunks = draw(st.permutations(chunks))
    head = [group, command]
    for kind in ([] if well_formed else
                 draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2))):
        i = draw(st.integers(0, max(len(chunks) - 1, 0)))
        chunk = chunks[i] if chunks else None
        if kind == "drop" and chunk:
            del chunks[i]
        elif kind == "repeat" and chunk:
            chunks.insert(draw(st.integers(0, len(chunks))), list(chunk))
        elif kind == "value" and chunk:
            chunk[-1] = draw(_ODD_VALUES)
        elif kind in ("equals", "attached") and chunk and len(chunk) == 2:
            chunks[i] = [("=" if kind == "equals" else "").join(chunk)]
        elif kind == "abbreviate" and chunk and chunk[0][:2] == "--" \
                and len(chunk[0]) > 3:
            chunk[0] = chunk[0][:draw(st.integers(3, len(chunk[0]) - 1))]
        elif kind in ("group", "command"):
            k = kind == "command"
            head[k] = draw(st.sampled_from(["nosuch", head[k][:-1], ""]))
        elif kind in ("extra", "dashes", "help"):
            token = {"extra": "x11", "dashes": "--",
                     "help": draw(st.sampled_from(["-h", "--help"]))}[kind]
            flat = [t for c in chunks for t in c]
            flat.insert(draw(st.integers(0, len(flat))), token)
            chunks = [flat]
    return head + [t for c in chunks for t in c]


class TestParserPerGroup:
    """``cli.run`` reads a well-formed command line without argparse, and
    leaves every other one to argparse: the outcome is the same with the
    reader disabled, and whenever the reader answers, its namespace is the
    one argparse returns."""

    @pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, argv, monkeypatch):
        with_reader = _outcome(argv)
        monkeypatch.setattr(qadhm.cli, "_read", lambda argv: None)
        assert with_reader == _outcome(argv)

    @pytest.mark.parametrize("command", sorted(_MODULES_BY_COMMAND),
                             ids=" ".join)
    def test_pinned_commands(self, command, tmp_path, monkeypatch):
        # every pinned command but --help is well formed: the reader answers
        argv = _pinned_argv(command, tmp_path)
        read = qadhm.cli._read(argv)
        assert (read is None) == (command == ("--help",))
        if read is not None:
            assert vars(read) == vars(build_parser().parse_args(argv))
        with_reader = _outcome(argv)
        monkeypatch.setattr(qadhm.cli, "_read", lambda argv: None)
        assert with_reader == _outcome(argv)

    @pytest.mark.parametrize("argv,stderr", [
        (["q", "nosuch"],
         "usage: qadhm q [-h]\n"
         "               {normalize,partial,laplace,harmonic,eigen,table,"
         "penrose} ...\n"
         "qadhm q: error: argument command: invalid choice: 'nosuch' "
         "(choose from 'normalize', 'partial', 'laplace', 'harmonic', "
         "'eigen', 'table', 'penrose')\n"),
        (["q", "eigen", "-k", "1"],
         "usage: qadhm q eigen [-h] [--output OUTPUT] [--p-choice {q,qinv}] "
         "-k K -l L\n"
         "qadhm q eigen: error: the following arguments are required: -l\n"),
    ])
    def test_usage_errors_are_pinned(self, argv, stderr, monkeypatch):
        # exit code and stderr as the parser of every subcommand gave them,
        # at 80 columns
        monkeypatch.setenv("COLUMNS", "80")
        assert _outcome(argv) == (2, "", stderr)

    @settings(max_examples=300, deadline=None)
    @given(_command_lines(well_formed=True))
    def test_reader_answers_every_well_formed_line(self, argv):
        read = qadhm.cli._read(argv)
        assert read is not None, argv
        assert vars(read) == vars(_FULL_PARSER().parse_args(argv))

    @settings(max_examples=300, deadline=None)
    @given(_command_lines(well_formed=False))
    def test_same_outcome_on_generated_lines(self, argv):
        # each handler is replaced by one that returns its namespace as the
        # report, so any line runs at once; ``run`` writes it to stdout or to
        # the --output file, in a directory of its own
        def echo(args):
            return sorted((k, v) for k, v in vars(args).items()
                          if k != "handler"), True

        def outcome(tmp):
            # the outcome of the line and the files it wrote, removed
            written = {}
            result = _outcome(argv)
            for path in Path(tmp).iterdir():
                written[path.name] = path.read_text(encoding="utf-8")
                path.unlink()
            return result, written

        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp)
            for group in _SUBCOMMANDS:
                table = qadhm.cli.commands(group)
                mp.setattr(sys.modules[f"qadhm.cli_{group}"], "COMMANDS",
                           {c: (h, echo, a) for c, (h, _, a) in table.items()})
            read = qadhm.cli._read(argv)
            if read is not None:
                assert vars(read) == vars(build_parser().parse_args(argv))
            with_reader = outcome(tmp)
            mp.setattr(qadhm.cli, "_read", lambda argv: None)
            assert with_reader == outcome(tmp)
