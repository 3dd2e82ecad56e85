import json
import math

import pytest

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
