import hashlib
import json
import math

import numpy as np
import pytest
import scipy

from struveops import cli
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
        code, out, _ = run_cli(
            capsys, "eval", "struve-h", "--p", "0.5", "--z", "1.0", "--terms", "48"
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms_or_nodes"] == 48
        assert data["est_error"] <= 1e-12

    def test_phi_linear_coefficient(self, capsys):
        # phi(z) = z exactly when c = 0, any z
        code, out, _ = run_cli(
            capsys, "eval", "phi", "--p", "0.5", "--b", "1", "--c", "0", "--z", "0.4"
        )
        assert code == 0
        assert json.loads(out)["value"] == [0.4, 0.0]


# Exact stdout of every eval target, recorded before cmd_eval became a table.
EVAL_GOLDEN = [
    (("struve-h", "--p", "0.5", "--z", "1.5"),
     '{"est_error": 0.0, "input": {"p": "(0.5+0j)", "target": "struve-h", "z": "(1.5+0j)"}, '
     '"terms_or_nodes": 64, "value": [0.6053868499774631, 0.0]}'),
    (("struve-l", "--p", "0.25", "--z", "2", "--terms", "40"),
     '{"est_error": 0.0, "input": {"p": "(0.25+0j)", "target": "struve-l", "z": "(2+0j)"}, '
     '"terms_or_nodes": 40, "value": [1.7689293569352125, 0.0]}'),
    (("struve-m", "--p", "0.5", "--b", "2", "--c=-0.5+0.25i", "--z", "0.7"),
     '{"est_error": 0.0, "input": {"b": "(2+0j)", "c": "(-0.5+0.25j)", "p": "(0.5+0j)", '
     '"target": "struve-m", "z": "(0.7+0j)"}, "terms_or_nodes": 64, '
     '"value": [0.17864620042593493, -0.0014555792609070419]}'),
    (("struve-n", "--p", "0.5", "--b", "1", "--c", "1", "--z", "0.3+0.2i"),
     '{"est_error": 2.141514425069702e-248, "input": {"b": "(1+0j)", "c": "(1+0j)", '
     '"p": "(0.5+0j)", "target": "struve-n", "z": "(0.3+0.2j)"}, "terms_or_nodes": 64, '
     '"value": [0.9751393287836986, -0.016335608470721328]}'),
    (("phi", "--p", "0.5", "--b", "1", "--c", "1", "--z", "0.3+0.2i", "--order", "12"),
     '{"est_error": 2.43321973447191e-29, "input": {"b": "(1+0j)", "c": "(1+0j)", '
     '"p": "(0.5+0j)", "target": "phi", "z": "(0.3+0.2j)"}, "terms_or_nodes": 12, '
     '"value": [0.2958089203292538, 0.19012718321552333]}'),
    (("f21", "--a", "1", "--b", "1", "--c", "2", "--z=-0.8"),
     '{"est_error": 1e-13, "input": {"a": "(1+0j)", "b": "(1+0j)", "c": "(2+0j)", '
     '"target": "f21", "z": "(-0.8+0j)"}, "terms_or_nodes": 0, "value": [0.734733331127636, 0.0]}'),
    (("q", "--A", "1", "--B", "-0.5", "--beta", "1.5", "--z", "0.4+0.3i"),
     '{"est_error": 3.59796202233893e-15, "input": {"A": 1.0, "B": -0.5, "beta": 1.5, '
     '"target": "q", "z": "(0.4+0.3j)"}, "terms_or_nodes": 128, '
     '"value": [1.373519044920815, 0.36329943999222314]}'),
    (("h-bound", "--A", "1", "--B", "-1", "--beta", "0.75", "--z=-0.5+0.25i"),
     '{"est_error": 1e-13, "input": {"A": 1.0, "B": -1.0, "beta": 0.75, "target": "h-bound", '
     '"z": "(-0.5+0.25j)"}, "terms_or_nodes": 0, '
     '"value": [0.6581618274765564, 0.12523188103874824]}'),
]


class TestEvalGolden:
    @pytest.mark.parametrize("argv,expected", EVAL_GOLDEN, ids=[g[0][0] for g in EVAL_GOLDEN])
    def test_stdout(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out, err) == (0, expected + "\n", "")

    def test_every_target_pinned(self):
        assert {argv[0] for argv, _ in EVAL_GOLDEN} == set(cli.EVAL_TARGETS)

    def test_struve_pole_is_numeric_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "struve-h", "--p", "-1.5", "--z", "1")
        assert (code, out) == (3, "")
        assert err.startswith("error [pole]")

    @pytest.mark.parametrize("argv,kind", [
        (("struve-h", "--p", "0.5", "--z", "1e200"), "domain"),  # printed [NaN, NaN]
        (("struve-m", "--p", "0.5", "--b", "1", "--c", "1e300", "--z", "0.5"), "domain"),
        (("struve-n", "--p", "0.5", "--b", "1", "--c", "1e300", "--z", "0.5"), "domain"),
        (("struve-h", "--p", "170", "--z", "1"), "domain"),  # OverflowError traceback
        (("q", "--A", "1", "--B", "0", "--beta", "1100", "--z", "0.5"), "convergence"),
        (("q", "--A", "1", "--B", "0", "--beta", "1e300", "--z", "0.5"), "convergence"),
    ])
    def test_non_finite_value_is_numeric_error(self, capsys, argv, kind):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error [{kind}]")


class TestRejectedInput:
    """Bad flag values exit 2 (usage) instead of crashing or printing NaN."""

    @pytest.mark.parametrize("extra", [("--nodes", "0"), ("--nodes", "-4"), ("--beta", "1e-300")])
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

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_verify_needs_a_trial(self, capsys, trials):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "recurrence", "--trials", trials])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


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

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "member", "--coeffs", str(path))
        assert code == 2
        assert "malformed" in err

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
        (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
        reason="the pinned digest was recorded with numpy 2.4.6 and scipy 1.17.1",
    )
    def test_seed_one_digest_is_pinned(self, capsys):
        # The refactor oracle: any change to a printed number changes this digest.
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7f549fdf7c83a84b5c12c1372ba82540fd3f7234a2990082b0d9d1389df708ed"
        )

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
