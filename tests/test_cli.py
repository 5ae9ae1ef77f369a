import json

import numpy as np
import pytest

from wsvie.cli import (CSV_HEADER, ConfigError, ConvergenceReport, ReportRow,
                       emit_report, get_problem, main, parse_report_json,
                       run_convergence, run_lebesgue, run_oracle_check, run_widths)


def _strip_wall_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


class TestEmitReport:
    def test_empty_report_header_only(self):
        report = ConvergenceReport(metadata={})
        assert emit_report(report, "csv") == CSV_HEADER + "\n"

    def test_one_row(self):
        report = ConvergenceReport(metadata={}, rows=[
            ReportRow(N=2, n=12, eps1=1.5e-3, eps2=2.5e-3, eoc=None, wall_time_ms=7)])
        text = emit_report(report, "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "2,12,1.50000e-03,2.50000e-03,,7"

    def test_json_round_trip(self):
        report = ConvergenceReport(metadata={"problem": "x", "deterministic": True},
                                   rows=[ReportRow(N=2, n=5, eps1=1e-3, eps2=2e-3,
                                                   eoc=None, wall_time_ms=1),
                                         ReportRow(N=4, n=9, eps1=1e-4, eps2=2e-4,
                                                   eoc=3.32, wall_time_ms=2)])
        back = parse_report_json(emit_report(report, "json"))
        assert back.metadata == report.metadata
        assert back.rows == report.rows

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_report(ConvergenceReport(metadata={}), "xml")


class TestRunConvergence:
    CFG_1D = {"problem": "corner-power-1d",
              "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
              "N": [2, 4, 8], "samples_per_axis": 201}

    def test_rows_and_eoc(self):
        report = run_convergence(self.CFG_1D)
        assert [r.N for r in report.rows] == [2, 4, 8]
        assert report.rows[0].eoc is None
        assert report.rows[1].eoc is not None
        for r in report.rows:
            assert r.eps2 >= r.eps1 - 1e-12
        assert report.rows[0].eps1 > report.rows[-1].eps1

    def test_eoc_formula(self):
        report = run_convergence(self.CFG_1D)
        r1, r2 = report.rows[0], report.rows[1]
        expect = np.log(r1.eps2 / r2.eps2) / np.log(r2.N / r1.N)
        assert r2.eoc == pytest.approx(expect)

    def test_determinism_byte_identical(self):
        a = emit_report(run_convergence(self.CFG_1D), "csv")
        b = emit_report(run_convergence(self.CFG_1D), "csv")
        assert _strip_wall_time(a) == _strip_wall_time(b)

    def test_zero_kernel_polynomial_exact(self):
        cfg = {"problem": "poly-k0-2d",
               "class_params": {"r": 2, "gamma": 2.5, "kind": "q_star"},
               "N": [1, 2, 3], "samples_per_axis": 101}
        report = run_convergence(cfg)
        for r in report.rows:
            assert r.eps1 <= 1e-12

    def test_residual_metric_without_exact(self):
        cfg = {"problem": "cos-rhs-1d",
               "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
               "N": [4], "samples_per_axis": 101}
        report = run_convergence(cfg)
        assert report.metadata["metric"] == "residual"
        assert report.rows[0].eps1 is not None

    def test_missing_field_raises_config_error(self):
        with pytest.raises(ConfigError):
            run_convergence({"problem": "corner-power-1d"})

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            run_convergence({"problem": "nope",
                             "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
                             "N": [2]})

    def test_row_failure_recorded_not_raised(self, monkeypatch):
        import wsvie.cli as cli

        calls = {"n": 0}
        orig = cli.solve_1d

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return orig(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_1d", flaky)
        report = run_convergence(self.CFG_1D)
        assert report.rows[0].error is not None
        assert report.rows[1].error is None
        assert report.rows[1].eps1 is not None


class TestOtherDrivers:
    def test_lebesgue_driver(self):
        report = run_lebesgue({"family": "chebyshev1_closed", "m": [3, 8]})
        assert report.rows[0].eps1 == pytest.approx(1.25, abs=1e-6)

    def test_widths_counts_driver(self):
        report = run_widths({"mode": "counts", "style": "boundary", "l": 2,
                             "v": 3.0, "N": [8, 16, 32]})
        assert 2.7 <= report.metadata["loglog_slope"] <= 3.3

    def test_widths_bumps_driver(self):
        report = run_widths({"mode": "bumps", "l": 2,
                             "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
                             "N": [4, 8]})
        vals = [v for r in report.rows for v in (r.eps1, r.eps2)]
        assert max(vals) / min(vals) <= 4.0

    def test_oracle_check_driver(self):
        report = run_oracle_check({"problem": "cos-rhs-1d",
                                   "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
                                   "N": 8, "uniform_n": 100})
        assert report.rows[0].eps1 <= 1e-2


class TestMainEntry:
    def test_convergence_command(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "problem": "corner-power-1d",
            "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
            "N": [2, 4]}))
        out = tmp_path / "r.csv"
        code = main(["convergence", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_json_output_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "problem": "poly-k0-1d",
            "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
            "N": [2]}))
        code = main(["solve1d", "--config", str(cfg), "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0]["N"] == 2

    def test_missing_config_file_exit_1(self, capsys):
        assert main(["convergence", "--config", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["convergence", "--config", str(cfg)]) == 1
        assert "line" in capsys.readouterr().err

    def test_bad_class_params_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "problem": "corner-power-1d",
            "class_params": {"r": 2, "gamma": -1.0, "kind": "q_star"},
            "N": [2]}))
        assert main(["convergence", "--config", str(cfg)]) == 1

    def test_row_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        import wsvie.cli as cli

        monkeypatch.setattr(cli, "solve_1d",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "problem": "corner-power-1d",
            "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
            "N": [2]}))
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("rule,code", [("jacobi", 1), ("legendre", 0)])
    def test_removed_singular_rule_rejected(self, tmp_path, capsys, rule, code):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "problem": "corner-power-1d",
            "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
            "N": [2], "singular_rule": rule}))
        assert main(["convergence", "--config", str(cfg)]) == code
        if code:
            assert "singular_rule" in capsys.readouterr().err

    @pytest.mark.parametrize("quad_n,code", [(12, 1), (None, 0)])
    def test_removed_quad_n_rejected(self, tmp_path, capsys, quad_n, code):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "problem": "corner-power-1d",
            "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
            "N": [2], "quad_n": quad_n}))
        assert main(["convergence", "--config", str(cfg)]) == code
        if code:
            err = capsys.readouterr().err
            assert "quad_n" in err and "largest per-axis node count plus 4" in err

    @pytest.mark.parametrize("command,config,field", [
        ("convergence", {"N": ["a"]}, "N"),
        ("convergence", {"samples_per_axis": "x"}, "samples_per_axis"),
        ("convergence", {"samples_per_axis": 10}, "samples_per_axis"),
        ("widths", {"mode": "counts", "N": ["z"]}, "N"),
        ("lebesgue", {"family": "chebyshev1_closed", "m": [1]}, "m >= 2"),
        ("oracle-check", {"problem": "cos-rhs-1d", "N": 8, "uniform_n": 500}, "uniform_n"),
        ("widths", {"mode": "counts", "l": "x"}, "'l'"),
        ("widths", {"mode": "counts", "l": 1}, "'l' must be >= 2"),
        ("widths", {"mode": "counts", "v": "x"}, "'v' must be a number"),
        ("widths", {"mode": "counts", "v": 0.5}, "'v' must be >= 1"),
        ("widths", {"mode": "counts", "style": "zz"}, "style 'zz'"),
        ("widths", {"mode": "bumps", "l": "x"}, "'l'"),
        # a fractional number or a bool is not truncated to an integer
        ("convergence", {"N": [2.5]}, "'N' must be an integer, got 2.5"),
        ("convergence", {"samples_per_axis": 60.9}, "'samples_per_axis' must be an integer"),
        ("widths", {"mode": "bumps", "l": True}, "'l' must be an integer, got True"),
        ("lebesgue", {"family": "chebyshev1_closed", "m": [3.5]}, "'m' must be an integer"),
        ("oracle-check", {"problem": "cos-rhs-1d", "N": 8, "uniform_n": 8.5},
         "'uniform_n' must be an integer"),
        ("convergence", {"class_params": {"r": 2.5, "gamma": 0.5, "kind": "q_star"}},
         "'r' must be an integer, got 2.5"),
        ("convergence", {"problem": {"l": 1, "T": 1.0, "kernel": None,
                                     "rhs": {"catalogue": True}}},
         "'catalogue' must be an integer, got True"),
        ("convergence", {"problem": {"l": 1.5, "T": 1.0, "kernel": None, "rhs": "one"}},
         "inline problem field 'l' must be an integer"),
        # a malformed inline kernel is a config error, not a traceback
        ("convergence", {"problem": {"l": 1, "T": 1.0, "kernel": {"exponents": ["a"]},
                                     "rhs": "one"}}, "inline problem invalid"),
        ("convergence", {"problem": {"l": 1, "T": 1.0, "kernel": {"exponents": [-1.5]},
                                     "rhs": "one"}}, "exponents must be > -1"),
        ("convergence", {"problem": {"l": 1, "T": 1.0, "kernel": {"exponents": 2.5},
                                     "rhs": "one"}}, "inline problem invalid"),
        ("convergence", {"problem": {"l": 1, "T": 1.0, "kernel": 5, "rhs": "one"}},
         "inline kernel must be an object with field 'exponents'"),
    ], ids=["N-not-int", "samples-not-int", "samples-too-few", "widths-N-not-int",
            "lebesgue-m-too-few", "uniform-n-too-large", "widths-l-not-int",
            "widths-l-too-small", "widths-v-not-number", "widths-v-too-small",
            "widths-style-unknown", "bumps-l-not-int", "N-fractional",
            "samples-fractional", "bumps-l-bool", "lebesgue-m-fractional",
            "uniform-n-fractional", "r-fractional", "catalogue-bool", "inline-l-fractional",
            "kernel-exponent-not-number", "kernel-exponent-too-small",
            "kernel-exponents-scalar", "kernel-not-object"])
    def test_malformed_field_exit_1(self, tmp_path, capsys, command, config, field):
        base = {"problem": "corner-power-1d", "N": [2],
                "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**base, **config}))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and field in err

    def test_lebesgue_command(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"family": "chebyshev1_closed", "m": [3]}))
        assert main(["lebesgue", "--config", str(cfg)]) == 0


class TestInlineProblems:
    def test_expression_rhs_residual_metric(self):
        cfg = {"problem": {"l": 1, "T": 1.0, "kernel": {"exponents": [2.5]},
                           "rhs": "cos-sum"},
               "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
               "N": [8], "samples_per_axis": 101}
        report = run_convergence(cfg)
        assert report.metadata["problem"] == "inline"
        assert report.metadata["metric"] == "residual"
        assert report.rows[0].eps1 <= 1e-3

    def test_catalogue_rhs_kernel_free(self):
        cfg = {"problem": {"l": 2, "T": 1.0, "kernel": None,
                           "rhs": {"catalogue": 1}, "exact": {"catalogue": 1}},
               "class_params": {"r": 2, "gamma": 2.5, "kind": "q_star"},
               "N": [2], "samples_per_axis": 101}
        report = run_convergence(cfg)
        assert report.rows[0].eps1 <= 1e-12

    def test_unknown_expression_rejected(self):
        cfg = {"problem": {"l": 1, "T": 1.0, "kernel": None, "rhs": "mystery"},
               "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
               "N": [2]}
        with pytest.raises(ConfigError):
            run_convergence(cfg)

    def test_missing_rhs_rejected(self):
        cfg = {"problem": {"l": 1, "T": 1.0, "kernel": None},
               "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
               "N": [2]}
        with pytest.raises(ConfigError):
            run_convergence(cfg)

    def test_bad_dimension_rejected(self):
        cfg = {"problem": {"l": 3, "T": 1.0, "kernel": None, "rhs": "one"},
               "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
               "N": [2]}
        with pytest.raises(ConfigError):
            run_convergence(cfg)


def test_problem_catalogue_consistency():
    # the 2D example rhs is manufactured so the stated exact solution solves
    # the equation: residual of the exact solution must vanish
    prob = get_problem("corner-power-2d")
    from wsvie.quad import power_moment

    t1, t2 = 0.7, 0.9
    kx = (power_moment(2.5, 2.5, t1) * power_moment(2.5, 2.5, t2))
    assert prob.exact(t1, t2) - kx == pytest.approx(prob.rhs(t1, t2), rel=1e-14)
