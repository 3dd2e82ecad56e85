import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from struveops import DomainError, cli
from struveops.cli import main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def identity_file(tmp_path, order=8):
    path = tmp_path / "identity.json"
    pairs = [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * (order - 1)
    path.write_text(json.dumps(pairs))
    return str(path)


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", 1 + 0j),
            ("-2.5i", -2.5j),
            ("0.3+0.1i", complex(0.3, 0.1)),
            ("1-0.5i", complex(1, -0.5)),
            ("i", 1j),
            ("0.5 + 0.25i", complex(0.5, 0.25)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_complex(text) == expected

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("one+twoi")


class TestEval:
    def test_f21_log_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "f21", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5"
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"][0] - 2.0 * math.log(2.0)) <= 1e-11
        assert abs(data["value"][1]) <= 1e-13
        assert set(data) == {"input", "value", "terms_or_nodes", "est_error"}

    def test_struve_n_degenerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "struve-n",
            "--p", "0.5", "--b", "1", "--c", "0", "--z", "0.3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == [1.0, 0.0]

    def test_q_b_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "q", "--A", "1", "--B", "0", "--beta", "1", "--z", "0.5"
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"][0] - 1.25) <= 1e-10
        assert abs(data["value"][1]) <= 1e-12

    def test_h_bound_matches_q(self, capsys):
        code_q, out_q, _ = run_cli(
            capsys, "eval", "q",
            "--A", "1", "--B", "-1", "--beta", "1", "--z", "0.5",
        )
        code_h, out_h, _ = run_cli(
            capsys, "eval", "h-bound",
            "--A", "1", "--B", "-1", "--beta", "1", "--z", "0.5",
        )
        assert code_q == 0 and code_h == 0
        vq = json.loads(out_q)["value"]
        vh = json.loads(out_h)["value"]
        assert abs(vq[0] - vh[0]) <= 1e-9

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "f21", "--a", "1", "--b", "1")
        assert code == 2
        assert "--c" in err or "--z" in err

    def test_numeric_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "f21", "--a", "1", "--b", "1", "--c", "2", "--z", "1.2"
        )
        assert code == 3
        assert "domain" in err

    def test_struve_h_reports_terms(self, capsys):
        # The kernel stops where --tol says and reports the terms it summed;
        # H_{1/2}(1) = sqrt(2/pi) (1 - cos 1).
        exact = math.sqrt(2.0 / math.pi) * (1.0 - math.cos(1.0))
        seen = []
        for tol in ("1e-13", "1e-6"):
            code, out, _ = run_cli(capsys, "eval", "struve-h", "--p", "0.5", "--z", "1.0",
                                   "--tol", tol)
            assert code == 0
            data = json.loads(out)
            assert abs(data["value"][0] - exact) <= data["est_error"]
            seen.append((data["terms_or_nodes"], data["est_error"]))
        assert [terms for terms, _ in seen] == [8, 5]
        assert seen[0][1] <= 1e-12

    def test_phi_linear_coefficient(self, capsys):
        # phi(z) = z exactly when c = 0, any z
        code, out, _ = run_cli(
            capsys, "eval", "phi", "--p", "0.5", "--b", "1", "--c", "0", "--z", "0.4"
        )
        assert code == 0
        assert json.loads(out)["value"] == [0.4, 0.0]


# Exact stdout of every eval target.  All but q were re-recorded when every
# series target moved to the one ratio-series kernel, which prints its own
# error bound and term count; the f21 and h-bound values kept their bits.
# q was re-recorded when it moved to the node ladder, where it stops at 32,
# and again when its rules came from Golub-Welsch: its value is now 40-digit
# mpmath rounded (7.7e-16 off before), with the rule's rounding in est_error.
# h-bound was re-recorded when h became 1 + (A-B) z beta/(beta+1)
# 2F1(1, beta+1; beta+2; -Bz): 4e-15 from 40-digit mpmath (3.5e-14 before).
EVAL_GOLDEN = [
    (("struve-h", "--p", "0.5", "--z", "1.5"),
     '{"est_error": 1.2902961521653993e-13, "input": {"p": "(0.5+0j)", "target": "struve-h", '
     '"z": "(1.5+0j)"}, "terms_or_nodes": 10, "value": [0.6053868499774631, 0.0]}'),
    (("struve-l", "--p", "0.25", "--z", "2"),
     '{"est_error": 3.7129919824687847e-13, "input": {"p": "(0.25+0j)", "target": "struve-l", '
     '"z": "(2+0j)"}, "terms_or_nodes": 11, "value": [1.7689293569352122, 0.0]}'),
    (("struve-m", "--p", "0.5", "--b", "2", "--c=-0.5+0.25i", "--z", "0.7"),
     '{"est_error": 3.713366222211735e-14, "input": {"b": "(2+0j)", "c": "(-0.5+0.25j)", '
     '"p": "(0.5+0j)", "target": "struve-m", "z": "(0.7+0j)"}, "terms_or_nodes": 7, '
     '"value": [0.17864620042593493, -0.0014555792609070417]}'),
    (("struve-n", "--p", "0.5", "--b", "1", "--c", "1", "--z", "0.3+0.2i"),
     '{"est_error": 5.59117509202039e-15, "input": {"b": "(1+0j)", "c": "(1+0j)", '
     '"p": "(0.5+0j)", "target": "struve-n", "z": "(0.3+0.2j)"}, "terms_or_nodes": 7, '
     '"value": [0.9751393287836985, -0.016335608470721387]}'),
    (("phi", "--p", "0.5", "--b", "1", "--c", "1", "--z", "0.3+0.2i"),
     '{"est_error": 2.133046767376158e-15, "input": {"b": "(1+0j)", "c": "(1+0j)", '
     '"p": "(0.5+0j)", "target": "phi", "z": "(0.3+0.2j)"}, "terms_or_nodes": 7, '
     '"value": [0.2958089203292538, 0.19012718321552327]}'),
    (("f21", "--a", "1", "--b", "1", "--c", "2", "--z=-0.8"),
     '{"est_error": 3.669914148196808e-14, "input": {"a": "(1+0j)", "b": "(1+0j)", "c": "(2+0j)", '
     '"target": "f21", "z": "(-0.8+0j)"}, "terms_or_nodes": 35, "value": [0.734733331127636, 0.0]}'),
    (("q", "--A", "1", "--B", "-0.5", "--beta", "1.5", "--z", "0.4+0.3i"),
     '{"est_error": 5.320322109504799e-15, "input": {"A": 1.0, "B": -0.5, "beta": 1.5, '
     '"target": "q", "z": "(0.4+0.3j)"}, "terms_or_nodes": 32, '
     '"value": [1.3735190449208177, 0.36329943999222664]}'),
    (("h-bound", "--A", "1", "--B", "-1", "--beta", "0.75", "--z=-0.5+0.25i"),
     '{"est_error": 1.3914128371771162e-14, "input": {"A": 1.0, "B": -1.0, "beta": 0.75, '
     '"target": "h-bound", "z": "(-0.5+0.25j)"}, "terms_or_nodes": 27, '
     '"value": [0.6581618274765287, 0.1252318810387204]}'),
]


class TestEvalQOneQuadrature:
    """``eval q`` integrates once and prints the gap that integration measured."""

    def test_one_q_call_and_two_rule_lookups(self, capsys, monkeypatch):
        # A linear integrand (B = 0) settles on the second rung: 32 against 16.
        from struveops import bounds, quadrature

        q_calls, rules = [], []
        jacobi_rule_01 = quadrature.jacobi_rule_01

        def counted_q(*args, **kwargs):
            q_calls.append(args)
            return bounds.best_dominant_q(*args, **kwargs)

        def counted_rule(n, alpha, beta):
            rules.append(n)
            return jacobi_rule_01(n, alpha, beta)

        monkeypatch.setattr(cli, "best_dominant_q", counted_q)
        monkeypatch.setattr(quadrature, "jacobi_rule_01", counted_rule)
        code, out, _ = run_cli(capsys, "eval", "q", "--A", "1", "--B", "0", "--beta", "1", "--z", "0.5")
        assert code == 0
        assert len(q_calls) == 1 and rules == [16, 32]
        assert json.loads(out)["terms_or_nodes"] == 32

    def test_settled_near_the_pole_matches_h_bound(self, capsys):
        # Only the 128-vs-64 rung settles here, within 1e-8 but not 1e-13.
        argv = ("--A", "1", "--B=-1", "--beta", "1", "--z", "0.99")
        code_q, out_q, err_q = run_cli(capsys, "eval", "q", *argv)
        assert (code_q, err_q) == (0, "")
        code_h, out_h, _ = run_cli(capsys, "eval", "h-bound", *argv)
        assert code_h == 0
        assert abs(json.loads(out_q)["value"][0] - json.loads(out_h)["value"][0]) <= 1e-11

    def test_near_the_pole_reaches_the_cap_with_the_two_rule_bits(self, capsys):
        # At --nodes the ladder prints what the fixed 128-vs-64 pair printed.
        # 1.8e-14 from 40-digit mpmath's 8.30337411310725529; the rules of
        # scipy.special.roots_jacobi printed a value 2.1e-12 off.
        code, out, _ = run_cli(capsys, "eval", "q", "--A", "1", "--B=-1", "--beta", "1",
                               "--z", "0.99")
        data = json.loads(out)
        assert code == 0 and data["terms_or_nodes"] == 128
        assert data["value"] == [8.303374113107237, 0.0]
        assert data["est_error"] == 7.134813094627798e-11

    def test_eight_nodes_compare_with_four(self, capsys):
        # The half rule must have fewer nodes: 8 against 8 reads a gap of 0
        # for a value 0.35 off.
        code, out, err = run_cli(capsys, "eval", "q", "--A", "1", "--B=-1", "--beta", "1",
                                 "--z", "0.99", "--nodes", "8")
        assert (code, out) == (3, "")
        assert "8 vs 4 nodes" in err


class TestEvalGolden:
    @pytest.mark.parametrize("argv,expected", EVAL_GOLDEN, ids=[g[0][0] for g in EVAL_GOLDEN])
    def test_stdout(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out, err) == (0, expected + "\n", "")

    def test_every_target_pinned(self):
        assert {argv[0] for argv, _ in EVAL_GOLDEN} == set(cli.EVAL_TARGETS)

    # h next to the unit circle at the half-plane target, by the expansion in
    # Log x: the series exited 3 here after 100,000 terms.  Both values are
    # 40-digit mpmath rounded.
    @pytest.mark.parametrize("z,expected", [
        ("0.9999", '{"est_error": 8.310429753578299e-14, "input": {"A": 1.0, "B": -1.0, '
                   '"beta": 1.0, "target": "h-bound", "z": "(0.9999+0j)"}, "terms_or_nodes": 3, '
                   '"value": [17.42252299625221, 0.0]}'),
        ("0.99999999", '{"est_error": 1.4949566809473368e-13, "input": {"A": 1.0, "B": -1.0, '
                       '"beta": 1.0, "target": "h-bound", "z": "(0.99999999+0j)"}, '
                       '"terms_or_nodes": 1, "value": [35.84136184626884, 0.0]}'),
    ])
    def test_h_bound_next_to_the_circle(self, capsys, z, expected):
        code, out, err = run_cli(capsys, "eval", "h-bound", "--A", "1", "--B=-1", "--beta", "1",
                                 "--z", z)
        assert (code, out, err) == (0, expected + "\n", "")

    def test_struve_pole_is_numeric_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "struve-h", "--p", "-1.5", "--z", "1")
        assert (code, out) == (3, "")
        assert err.startswith("error [pole]")

    @pytest.mark.parametrize("argv,kind", [
        (("struve-h", "--p", "0.5", "--z", "1e200"), "domain"),  # printed [NaN, NaN]
        (("struve-m", "--p", "0.5", "--b", "1", "--c", "1e300", "--z", "0.5"), "domain"),
        (("struve-n", "--p", "0.5", "--b", "1", "--c", "1e300", "--z", "0.5"), "domain"),
        (("struve-h", "--p", "170", "--z", "1"), "domain"),  # OverflowError traceback
        # |term 340| overflows though both its parts are finite: OverflowError traceback.
        (("f21", "--a=112.45649842108132-0.033558035072331016i",
          "--b=91.80646824299546-348.74520694994334i",
          "--c=-8.062115429654835-1.7273464037010433i",
          "--z=0.9500499036469595-0.3012562600342823i"), "domain"),
    ])
    def test_non_finite_value_is_numeric_error(self, capsys, argv, kind):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error [{kind}]")

    def test_q_at_beta_1e300_is_right_or_convergence_error(self, capsys):
        # Rules from scipy.special.roots_jacobi were not finite here (exit 3),
        # and a recurrence that forms beta^2 raises OverflowError (a traceback).
        code, out, err = run_cli(capsys, "eval", "q", "--A", "1", "--B", "0", "--beta", "1e300",
                                 "--z", "0.5")
        if code == 3:
            assert out == "" and err.startswith("error [convergence]")
        else:
            data = json.loads(out)
            assert (code, err, data["value"][1]) == (0, "", 0.0)
            assert abs(data["value"][0] - 1.5) <= data["est_error"]

    @pytest.mark.parametrize("beta", ["1e-17", "1e-300"])
    def test_q_below_beta_2_to_minus_53_is_convergence_error(self, capsys, beta):
        # beta - 1 rounds to -1 there, and no Gauss-Jacobi rule exists; this
        # was a usage error (exit 2) that named the exponent, not beta.
        code, out, err = run_cli(capsys, "eval", "q", "--A", "1", "--B", "0", "--beta", beta,
                                 "--z", "0.5")
        assert (code, out) == (3, "")
        assert err.startswith(f"error [convergence]: beta = {float(beta):g} is below 2^-53")


class TestKernelErrors:
    """Every series target prints the kernel's own bound, or exits 3."""

    # |z| > 1 with Re z < 1/2, which only the Pfaff route reaches.
    PFAFF = ("--a", "19.229515266404327", "--b=-16.566421238049273", "--c", "1.8522355983271444",
             "--z=0.3-1.1i")

    @pytest.mark.parametrize("argv", [("f21", *PFAFF), ("struve-h", "--p", "0.5", "--z", "45")],
                             ids=["f21-pfaff", "struve-h-45"])
    def test_no_correct_digit_is_convergence_error(self, capsys, argv):
        # Such sums once printed -1.37e39 (true 5514) and 10.88 (true 0.0565) with exit 0.
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error [convergence]: no correct digit")

    def test_struve_h_at_20_reports_its_error(self, capsys):
        import mpmath

        code, out, _ = run_cli(capsys, "eval", "struve-h", "--p", "0.5", "--z", "20")
        assert code == 0
        data = json.loads(out)
        exact = float(mpmath.struveh(0.5, 20))
        assert abs(data["value"][0] - exact) <= data["est_error"] <= 1e-5

    @pytest.mark.parametrize("target,value", [("struve-m", -0.011462712453206417),
                                              ("struve-n", -7924038639496913.0),
                                              ("phi", -3962019319748456.5)],
                             ids=["struve-m", "struve-n", "phi"])
    def test_k_within_rounding_of_a_pole(self, capsys, target, value):
        # k = 1e-17: (k + 1) - 1 rounded to 0 and raised PoleError; k + (1 - 1)
        # keeps k, and N = -7924038639496912.76 (40-digit mpmath) is finite.
        code, out, err = run_cli(capsys, "eval", target, "--p", "1e-17", "--b=-2", "--c", "1",
                                 "--z", "0.5")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == [value, 0.0]

    def test_member_k_within_rounding_of_a_pole(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "member", "--coeffs", identity_file(tmp_path),
                                 "--p", "1e-17", "--b=-2")
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True and json.loads(out)["margin"] == 1.0

    @pytest.mark.parametrize("flag", ["--terms", "--order"])
    def test_truncation_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "struve-n", "--p", "0.5", "--b", "1", "--c", "1", "--z", "0.3", flag, "12"])
        assert excinfo.value.code == 2


def _documented_commands():
    """Every ``struveops ...`` example in README's CLI section and in the cli
    docstring's examples."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    text = (section + "\n" + cli.__doc__.split("Examples::")[1]).replace("\\\n", " ")
    return list(dict.fromkeys(tuple(line.split("#")[0].split()[1:]) for line in text.splitlines()
                              if line.strip().startswith("struveops ")))


@pytest.mark.parametrize("argv", _documented_commands(), ids=" ".join)
def test_documented_example_runs(capsys, tmp_path, argv):
    argv = [identity_file(tmp_path) if a == "f.json" else str(tmp_path / a) if a == "cloud.csv"
            else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code != 2, capsys.readouterr().err


class TestRejectedInput:
    """Bad flag values exit 2 (usage) instead of crashing or printing NaN."""

    @pytest.mark.parametrize("extra", [("--nodes", "0"), ("--nodes", "-4"), ("--beta", "0"),
                                       ("--nodes", "1")])
    def test_invalid_quadrature_rule(self, capsys, extra):
        argv = {"--A": "1", "--B": "0", "--beta": "1", "--z": "0.5"}
        argv.update([extra])
        code, out, err = run_cli(capsys, "eval", "q", *(x for kv in argv.items() for x in kv))
        assert (code, out) == (2, "")
        assert err.startswith("error [parameter]")

    @pytest.mark.parametrize("text", ["nan", "1e999", "nan+1i", "1-1e999i"])
    def test_parse_complex_rejects_non_finite(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(text)

    @pytest.mark.parametrize("argv", [
        ("eval", "struve-h", "--p", "nan", "--z", "1"),
        ("eval", "f21", "--a", "nan", "--b", "1", "--c", "2", "--z", "0.5"),
        ("eval", "q", "--A", "1", "--B", "0", "--beta", "inf", "--z", "0.5"),
        ("eval", "h-bound", "--A", "nan", "--B", "0", "--beta", "1", "--z", "0.5"),
        ("eval", "h-bound", "--A", "1", "--B=-1e999", "--beta", "1", "--z", "0.5"),
        ("eval", "f21", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5", "--tol", "nan"),
        ("member", "--coeffs", "unused.json", "--alpha", "nan"),
        ("member", "--coeffs", "unused.json", "--mu", "inf"),
        ("verify", "--suite", "radius", "--tol", "nan"),
    ])
    def test_non_finite_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("eval", "f21", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5", "--tol=-1"),
        ("eval", "h-bound", "--A", "1", "--B", "0", "--beta", "1", "--z", "0.5", "--tol", "0"),
        ("verify", "--suite", "radius", "--trials", "3", "--tol=-1"),
        ("verify", "--suite", "radius", "--tol", "0"),
    ])
    def test_tol_must_be_positive(self, capsys, argv):
        # eval summed 100,000 terms and exited 3; verify exited 1, "certified fail".
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_exponent_form_needs_equals(self, capsys):
        argv = ("eval", "h-bound", "--A", "1", "--beta", "1", "--z", "0.5")
        assert run_cli(capsys, *argv, "--B=-1e-3") == run_cli(capsys, *argv, "--B", "-0.001")

    @pytest.mark.parametrize("nodes", [str(cli.MAX_NODES + 1), "1000000", "99999999999999999999"])
    def test_nodes_above_the_maximum_are_rejected_by_the_parser(self, capsys, nodes):
        # A rule costs O(n^2) to build: 1,000,000 nodes ran for hours.  The
        # parser exits 2 before any rule is built.
        argv = ["eval", "q", "--A", "1", "--B", "0", "--beta", "1", "--z", "0.5", "--nodes", nodes]
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--nodes" in capsys.readouterr().err

    def test_nodes_up_to_the_maximum_parse(self):
        argv = ["eval", "q", "--A", "1", "--B", "0", "--beta", "1", "--z", "0.5", "--nodes"]
        assert cli.build_parser().parse_args([*argv, str(cli.MAX_NODES)]).nodes == cli.MAX_NODES
        # Fewer than 2 still reaches q, whose ParameterError names the rule.
        assert cli.build_parser().parse_args([*argv, "-4"]).nodes == -4

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_verify_needs_a_trial(self, capsys, trials):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "recurrence", "--trials", trials])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("seed", ["-1", "-20"])
    def test_negative_seed_is_usage_error(self, capsys, seed):
        # numpy's default_rng raised ValueError out of the CLI, which exited 1.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "radius", "--seed", seed])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--seed: must be at least 0" in err


class TestMember:
    def test_identity_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "member", "--coeffs", identity_file(tmp_path),
            "--alpha", "0.2", "--lambda", "0.5+0.5i", "--mu", "0.5",
            "--p", "0.5", "--b", "1", "--c", "1", "--A", "1", "--B", "-1",
            "--radii", "0.3,0.6,0.9", "--points", "60",
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["passed"] is True
        assert verdict["margin"] > 0
        assert verdict["witness"] is None

    def test_constructed_failure(self, capsys, tmp_path):
        path = tmp_path / "fail.json"
        pairs = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]] + [[0.0, 0.0]] * 14
        path.write_text(json.dumps(pairs))
        code, out, _ = run_cli(
            capsys, "member", "--coeffs", str(path),
            "--alpha", "0", "--lambda", "30", "--mu", "0.5",
            "--p", "0.5", "--b", "1", "--c", "1", "--A", "1", "--B", "-1",
        )
        assert code == 1
        verdict = json.loads(out)
        assert verdict["passed"] is False
        assert verdict["margin"] < 0
        assert verdict["witness"] is not None

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
    def test_repeated_calls_keep_their_heap(self, capsys, tmp_path):
        # glibc's default trim handed the ~1 MB of temporaries back after
        # every call, and the next call faulted 140-170 pages in again.
        import resource

        argv = ("member", "--coeffs", identity_file(tmp_path))
        for _ in range(3):
            assert run_cli(capsys, *argv)[0] == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            assert run_cli(capsys, *argv)[0] == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5 * 20

    def test_zero_of_shifted_image_inside_is_numeric_error(self, capsys, tmp_path):
        # S_(k+1) f / z vanishes near z = 1.8e-307 while every sample of J is
        # finite: the sampled verdict used to pass with margin 1.4e-170.
        path = tmp_path / "zero.json"
        path.write_text(json.dumps([[0, 0], [1, 0], [1e308, 0], [1e308, 0]]))
        code, out, err = run_cli(capsys, "member", "--coeffs", str(path))
        assert code == 3
        assert out == ""
        assert "[domain]" in err and "winding number 1 around 0 on |z| = 0.95" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "member", "--coeffs", str(path))
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize("rows,bad", [
        ([[0, 0, 7], [1, 0, 9], [0.1, 0, "x"]], "row 0 is not two numbers [re, im]: [0, 0, 7]"),
        ([[False, False], [True, False], [0.1, 0]], "row 0 is not two numbers [re, im]: [False, False]"),
        ([[0, 0], [1, 0], [0.1, "0.2"]], "row 2 is not two numbers [re, im]: [0.1, '0.2']"),
    ], ids=["three entries", "booleans", "numeric string"])
    def test_row_that_is_not_two_numbers(self, capsys, tmp_path, rows, bad):
        # The first two entries of each row were read and the rest dropped,
        # and a bool read as 0 or 1: both files printed a verdict.
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(rows))
        code, out, err = run_cli(capsys, "member", "--coeffs", str(path))
        assert (code, out) == (2, "")
        assert "malformed" in err and bad in err

    def test_non_normalized_file(self, capsys, tmp_path):
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]]))
        code, _, err = run_cli(capsys, "member", "--coeffs", str(path))
        assert code == 2
        assert "normalized" in err

    def test_dump_writes_samples(self, capsys, tmp_path):
        dump = tmp_path / "cloud.csv"
        code, out, _ = run_cli(
            capsys, "member", "--coeffs", identity_file(tmp_path),
            "--radii", "0.5", "--points", "12", "--dump", str(dump),
        )
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "z_re,z_im,j_re,j_im,margin"
        assert len(lines) == 13
        verdict = json.loads(out)
        assert verdict["samples_used"] == 12

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_dump_is_usage_error(self, capsys, tmp_path, where):
        # open() raised IsADirectoryError or FileNotFoundError out of the CLI,
        # which printed a traceback and exited 1, the code of a failed verdict.
        dump = tmp_path if where == "directory" else tmp_path / "no" / "cloud.csv"
        code, out, err = run_cli(capsys, "member", "--coeffs", identity_file(tmp_path),
                                 "--points", "6", "--dump", str(dump))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write dump file {str(dump)!r}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra", [
        ("--points", "1000000000"),
        ("--points", str(cli.MAX_SAMPLES // 10 + 1)),
        ("--radii", "0.5", "--points", str(cli.MAX_SAMPLES + 1)),
        ("--radii", "0.2,0.4", "--points", str(cli.MAX_SAMPLES // 2 + 1)),
    ])
    def test_samples_above_the_maximum_are_rejected_before_evaluation(
            self, capsys, tmp_path, monkeypatch, extra):
        # 10^6 samples peak near 150 MB; 10^10 ended in a MemoryError, which
        # exited 1 like a certified fail.
        def fail(*args, **kwargs):
            raise AssertionError("sampled before the sample count was checked")

        monkeypatch.setattr(cli, "membership_samples", fail)
        code, out, err = run_cli(capsys, "member", "--coeffs", identity_file(tmp_path), *extra)
        assert code == 2
        assert out == ""
        assert f"exceed {cli.MAX_SAMPLES} samples" in err

    @pytest.mark.parametrize("extra", [
        ("--points", str(cli.MAX_SAMPLES // 10)),
        ("--radii", "0.5", "--points", str(cli.MAX_SAMPLES)),
    ])
    def test_samples_up_to_the_maximum_are_evaluated(self, capsys, tmp_path, monkeypatch, extra):
        def reached(cp, f, radii, points):
            raise DomainError(f"sampling {len(radii) * points}")

        monkeypatch.setattr(cli, "membership_samples", reached)
        code, _, err = run_cli(capsys, "member", "--coeffs", identity_file(tmp_path), *extra)
        assert code == 3
        assert f"sampling {cli.MAX_SAMPLES}" in err


class TestVerify:
    def test_recurrence_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "recurrence",
            "--trials", "10", "--seed", "42", "--tol", "1e-10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert sum(1 for r in records if r.get("summary")) == 1
        checks = [r for r in records if not r.get("summary")]
        assert len(checks) == 10
        assert all(r["passed"] for r in checks)

    def test_deterministic_output(self, capsys):
        args = ("verify", "--suite", "radius", "--trials", "5", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_different_seeds_differ(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "radius",
                              "--trials", "5", "--seed", "1")
        _, second, _ = run_cli(capsys, "verify", "--suite", "radius",
                               "--trials", "5", "--seed", "2")
        assert first != second

    def test_all_suites_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--trials", "3", "--seed", "42"
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        grand = records[-1]
        assert grand["summary"] is True
        assert grand["failed"] == 0

    @pytest.mark.skipif(
        np.__version__ != "2.4.6",
        reason="the pinned digest was recorded with numpy 2.4.6",
    )
    def test_seed_one_digest_is_pinned(self, capsys):
        # The refactor oracle: any change to a printed number changes this digest.
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "29a91d1b75fdaea40e9a47501862938453c740c2ed8d85a3a1e2185fd768720c"
        )

    @pytest.mark.skipif(
        np.__version__ != "2.4.6",
        reason="the pinned digests were recorded with numpy 2.4.6",
    )
    @pytest.mark.parametrize("seed,digest", [
        (0, "781d83247c554a82d5d6097b7066a211ac231dc532fb8033dee3186b02581b43"),
        (2, "0f2ea6c4b5618bee2258fce371e6f295f43ac391e411d3082e28c46a5029e595"),
        (3, "6304aac34a6f569d03e31bb678550c9b7b1de8af6f4e7cdb35aa9b5907db94b7"),
    ], ids=["seed-0", "seed-2", "seed-3"])  # a re-pin keeps the test names
    def test_other_seed_digests_are_pinned(self, capsys, seed, digest):
        # Other draws of every suite, so that a change one seed misses shows.
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(
        np.__version__ != "2.4.6",
        reason="the pinned digest was recorded with numpy 2.4.6",
    )
    def test_seed_one_digest_holds_with_seed_words_cached(self, capsys):
        # Each stream's seed words are cached: a replay after other seeds and
        # suites, which evict some of seed 1's streams and draw from others,
        # prints the same bytes as the first.
        digest = "29a91d1b75fdaea40e9a47501862938453c740c2ed8d85a3a1e2185fd768720c"
        runs = [("all", "1", None), ("ode", "2", "300"), ("recurrence", "1", "30"),
                ("all", "5", None), ("dominant", "1", "2"), ("all", "1", None)]
        digests = []
        for suite, seed, trials in runs:
            extra = ("--trials", trials) if trials else ()
            code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", seed, *extra)
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests[0] == digests[-1] == digest

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "nonsense"])
        assert excinfo.value.code == 2


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_rejected_as_usage_error(self, capsys, tmp_path, literal):
        path = tmp_path / "nonfinite.json"
        path.write_text(f"[[0, 0], [1, 0], [{literal}, 0]]")
        code, out, err = run_cli(capsys, "member", "--coeffs", str(path))
        assert code == 2
        assert out == ""
        assert "non-finite coefficient at power 2" in err

    def test_integer_beyond_double_precision_is_usage_error(self, capsys, tmp_path):
        # A 400-digit JSON integer raised OverflowError out of the CLI, which exited 1.
        path = tmp_path / "big.json"
        path.write_text(f"[[0, 0], [1, 0], [{'9' * 400}, 0]]")
        code, out, err = run_cli(capsys, "member", "--coeffs", str(path))
        assert (code, out) == (2, "")
        assert "malformed" in err and "too large to convert to float" in err

    def test_non_finite_functional_is_numeric_error(self, capsys, tmp_path):
        # Finite coefficients whose operator images overflow: J is not finite.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([[0, 0], [1, 0], [1e308, 0], [1e308, 0]]))
        code, out, err = run_cli(capsys, "member", "--coeffs", str(path), "--c", "-40")
        assert code == 3
        assert out == ""
        assert "[domain]" in err and "not finite" in err
        assert "RuntimeWarning" not in err


class TestParserCache:
    ARGS = ("--radii", "0.4,0.8", "--points", "24")

    def test_repeated_calls_identical(self, capsys, tmp_path):
        path = identity_file(tmp_path)
        _, first, _ = run_cli(capsys, "member", "--coeffs", path, "--lambda", "2", *self.ARGS)
        _, second, _ = run_cli(capsys, "member", "--coeffs", path, "--lambda", "2", *self.ARGS)
        assert first == second
        assert json.loads(first)["samples_used"] == 48
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_leak(self, capsys, tmp_path):
        path = identity_file(tmp_path)
        _, out, _ = run_cli(capsys, "member", "--coeffs", path, *self.ARGS)
        assert json.loads(out)["samples_used"] == 48
        _, out, _ = run_cli(capsys, "member", "--coeffs", path, "--points", "6")
        assert json.loads(out)["samples_used"] == 60  # ten default radii
        dump = tmp_path / "cloud.csv"
        run_cli(capsys, "member", "--coeffs", path, "--points", "6", "--dump", str(dump))
        dump.unlink()
        run_cli(capsys, "member", "--coeffs", path, "--points", "6")
        assert not dump.exists()

    def test_rebound_command_honoured(self, capsys, tmp_path, monkeypatch):
        path = identity_file(tmp_path)
        run_cli(capsys, "member", "--coeffs", path, *self.ARGS)
        seen = []

        def fake_member(args):
            seen.append(args.coeffs)
            return 7

        monkeypatch.setattr(cli, "cmd_member", fake_member)
        code, out, _ = run_cli(capsys, "member", "--coeffs", path, *self.ARGS)
        assert code == 7 and out == ""
        assert seen == [path]


def test_dump_matches_verdict(capsys, tmp_path):
    path = tmp_path / "fail.json"
    path.write_text(json.dumps([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]] + [[0.0, 0.0]] * 14))
    dump = tmp_path / "cloud.csv"
    code, out, _ = run_cli(
        capsys, "member", "--coeffs", str(path), "--lambda", "30",
        "--radii", "0.9,0.95", "--points", "36", "--dump", str(dump),
    )
    assert code == 1
    verdict = json.loads(out)
    rows = [line.split(",") for line in dump.read_text().splitlines()[1:]]
    margins = [float(row[4]) for row in rows]
    assert len(rows) == verdict["samples_used"] == 72
    assert min(margins) == verdict["margin"]
    first = rows[margins.index(min(margins))]
    assert [float(first[0]), float(first[1])] == verdict["witness"]
    # repr round-trips, so every field reads back to the exact float
    assert all(repr(float(x)) == x for row in rows for x in row)


#: Runs the CLI commands of its second argument (JSON) in one fresh
#: interpreter and prints, as JSON, the modules of interest that importing the
#: CLI loaded, each command's exit code and stdout sha256, and every scipy
#: module loaded by the end.  With "block" as its first argument, a meta-path
#: finder first makes every import of scipy raise ImportError.
CLI_PROBE = """
import contextlib, hashlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
import struveops.cli
on_import = [m for m in ("scipy", "numpy.random") if m in sys.modules]
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = struveops.cli.main(argv)
    runs.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"on_import": on_import, "runs": runs, "scipy": scipy}))
"""

#: Every path that used to import scipy: rules for q, h(-1) and the Euler
#: integral, and the re-bounds oracle.
SCIPY_PATHS = [["verify", "--suite", "all", "--seed", "1"],
               ["eval", "q", "--A", "1", "--B", "0.5", "--beta", "2000", "--z", "0.5"]]


def cli_probe(mode):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", CLI_PROBE, mode, json.dumps(SCIPY_PATHS)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120, check=True)
    return json.loads(done.stdout)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test oracle only: no command imports it.  numpy.random
    # (about 18 ms) waits for the first seeded draw of a suite.
    probe = cli_probe("plain")
    assert probe["on_import"] == [] and probe["scipy"] == []
    assert [code for code, _ in probe["runs"]] == [0] * len(SCIPY_PATHS)


def test_commands_print_the_same_with_scipy_blocked(capsys):
    expected = []
    for argv in SCIPY_PATHS:
        code, out, _ = run_cli(capsys, *argv)
        expected.append([code, hashlib.sha256(out.encode()).hexdigest()])
    assert cli_probe("block")["runs"] == expected
    assert [code for code, _ in expected] == [0] * len(SCIPY_PATHS)
