"""Command line behaviour: schemas, exit codes, config precedence."""

import json

import pytest

try:
    import mpmath
except ImportError:  # the 50-digit constants below are then taken as given
    mpmath = None

from sphmult import tree
from sphmult.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormTable:
    def test_csv_schema_and_statuses(self, capsys):
        code, out, _ = run(
            capsys,
            "norm-table", "--family", "so0", "--n", "3",
            "--sigma-range", "0:1:3", "--t-range", "0:1:2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sigma,t,norm,status"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        # sigma-major, then t
        assert [r[0] for r in rows] == ["0", "0", "0.5", "0.5", "1", "1"]
        by_key = {(r[0], r[1]): r for r in rows}
        assert by_key[("1", "0")][2] == "1" and by_key[("1", "0")][3] == "BOUNDARY_CONSTANT"
        assert by_key[("1", "1")][2] == "" and by_key[("1", "1")][3] == "NOT_MULTIPLIER"
        assert by_key[("0.5", "1")][3] == "INTERIOR"
        assert float(by_key[("0.5", "1")][2]) > 1.0

    def test_sigma_axis_rows_are_one(self, capsys):
        code, out, _ = run(
            capsys,
            "norm-table", "--family", "so0", "--n", "2",
            "--sigma-range", "0:0:1", "--t-range=-2:2:9",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            sigma, t, norm, status = line.split(",")
            assert status == "INTERIOR"
            assert abs(float(norm) - 1.0) < 1e-12

    def test_deterministic(self, capsys):
        argv = [
            "norm-table", "--family", "so0", "--n", "4",
            "--sigma-range=-1:1:5", "--t-range", "0:1.5:4",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "table.json"
        code, _, _ = run(
            capsys,
            "norm-table", "--family", "so0", "--n", "3",
            "--sigma-range", "0:0.5:2", "--t-range", "0:1:2",
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["m"] == 2
        assert len(data["rows"]) == 4
        assert {"sigma", "t", "norm", "status"} <= set(data["rows"][0])

    def test_rejects_other_families(self, capsys):
        code, _, err = run(
            capsys,
            "norm-table", "--family", "su", "--n", "2",
            "--sigma-range", "0:1:2", "--t-range", "0:1:2",
        )
        assert code == 2
        assert "so0" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "norm-table", "--family", "xx")
        assert code == 2
        assert out == ""
        assert err == "error: unknown family 'xx'\n"

    def test_large_imaginary_parts(self, capsys):
        # |G(m/2+it)|^2 underflows beyond t of about 230
        code, out, _ = run(
            capsys, "norm-table", "--family", "so0", "--n", "3",
            "--sigma-range", "0.9:0.9:1", "--t-range=0:500:3",
        )
        assert code == 0
        norms = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert norms[0] == 1.0
        assert 9.14 < norms[1] < norms[2] < 9.15

    def test_bad_range(self, capsys):
        code, _, _ = run(
            capsys,
            "norm-table", "--family", "so0", "--n", "2", "--sigma-range", "0:1:0",
        )
        assert code == 2


class TestEval:
    def test_boundary_constant_su(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--family", "su", "--n", "2",
            "--sigma", "2", "--t", "0", "--r", "0",
        )
        assert code == 0
        assert "+1 " in out or "+1\n" in out

    def test_exceptional_family_constant(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--family", "f4", "--sigma", "11", "--t", "0", "--r", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 22
        for value in data["methods"].values():
            assert abs(complex(value[0], value[1]) - 1.0) < 1e-10

    def test_methods_agree(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--family", "so0", "--n", "3",
            "--sigma", "0.5", "--t", "1.0", "--r", "1.0", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        values = [complex(re, im) for re, im in data["methods"].values() ]
        reference = values[0]
        for value in values[:3]:  # hypergeometric + quadrature routes
            assert abs(value - reference) < 1e-8
        assert data["cb_norm"] == pytest.approx(1.4102201393997935, rel=1e-10)

    def test_not_multiplier_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--family", "so0", "--n", "3",
            "--sigma", "1.0", "--t", "1.0", "--r", "0.5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["cb_norm"] is None
        assert data["cb_norm_status"] == "NOT_MULTIPLIER"

    def test_text_report_so0(self, capsys):
        # the README example, and a point outside the strip
        code, out, _ = run(
            capsys,
            "eval", "--family", "so0", "--n", "3",
            "--sigma", "0.5", "--t", "1.0", "--r", "1.0",
        )
        assert code == 0
        assert "  cb multiplier norm           1.41022013939979\n" in out
        code, out, _ = run(
            capsys,
            "eval", "--family", "so0", "--n", "3",
            "--sigma", "1.0", "--t", "1.0", "--r", "0.5",
        )
        assert code == 0
        assert out.endswith("  cb multiplier norm           NOT_MULTIPLIER\n")

    def test_large_imaginary_part(self, capsys):
        # gamma's reflection overflowed at t = 240 (a traceback); beyond
        # it the Gauss ratio of the second form leaves the float range
        code, out, err = run(
            capsys, "eval", "--family", "so0", "--n", "3", "--format", "json",
            "--sigma", "0.3", "--t", "240", "--r", "1",
        )
        assert code == 0 and err == ""
        second = complex(*json.loads(out)["methods"]["hypergeometric_second_form"])
        # e^(-(1 + s)) F(1 + s, 1; 2; 1 - e^-2) at 50 digits (mpmath)
        expected = 0.0035044804211999800 - 0.00034735711077536070j
        assert abs(second - expected) < 1e-12 * abs(expected)
        for t in ("500", "1e3", "1e4"):
            code, out, err = run(
                capsys, "eval", "--family", "so0", "--n", "3",
                "--sigma", "0.3", "--t", t, "--r", "1",
            )
            assert code in (0, 1)
            if code:
                assert out == ""
                assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_second_form_beyond_the_gauss_ratio_overflow(self, capsys):
        # the Gauss ratio left the float range here (exit 1 before)
        code, out, err = run(
            capsys, "eval", "--family", "so0", "--n", "3", "--format", "json",
            "--sigma", "0.3", "--t", "500", "--r", "1",
        )
        assert code == 0 and err == ""
        second = complex(*json.loads(out)["methods"]["hypergeometric_second_form"])
        # e^(-(1 + s)) F(1 + s, 1; 2; 1 - e^-2) at 50 digits (mpmath)
        expected = -8.324382250562319e-4 + 4.57549833754118e-4j
        assert abs(second - expected) < 1e-12 * abs(expected)

    def test_quadrature_form_at_t_1e4(self, capsys):
        # the adaptive quadrature exhausted its panel budget here (exit 1)
        code, out, err = run(
            capsys, "eval", "--family", "so0", "--n", "3", "--format", "json",
            "--sigma", "0.3", "--t", "1e4", "--r", "1",
        )
        assert code == 0 and err == ""
        methods = json.loads(out)["methods"]
        quad = complex(*methods["integral_quadrature"])
        second = complex(*methods["hypergeometric_second_form"])
        # e^(-(1 + s)) F(1 + s, 1; 2; 1 - e^-2) at 50 digits (mpmath)
        expected = -2.7185063386270796e-05 + 2.4671609367145097e-05j
        if mpmath is not None:
            with mpmath.workdps(50):
                s = mpmath.mpc(0.3, 1e4)
                exact = mpmath.exp(-(1 + s)) * mpmath.hyp2f1(1 + s, 1, 2, 1 - mpmath.exp(-2))
            assert abs(complex(exact) - expected) < 1e-15 * abs(expected)
        assert abs(second - expected) < 1e-12 * abs(expected)
        assert abs(quad - second) < 1e-8 * abs(second)

    def test_series_overflow_falls_back_or_fails_cleanly(self, capsys):
        # SO0 takes the quadrature form where the 2F1 series overflows;
        # SU(1,3) has none and fails with one error line
        code, out, err = run(
            capsys, "eval", "--family", "so0", "--n", "3",
            "--sigma", "0.3", "--t", "1e3", "--r", "1",
        )
        assert code == 0 and err == ""
        code, out, err = run(
            capsys, "eval", "--family", "su", "--n", "3",
            "--sigma", "0.3", "--t", "1e3", "--r", "1",
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_unsupported_point_is_runtime_failure(self, capsys):
        code, out, err = run(
            capsys, "eval", "--family", "su", "--n", "2",
            "--sigma", "0", "--t", "0.3", "--r", "400",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_value_beyond_float_range_is_runtime_failure(self, capsys):
        code, out, err = run(
            capsys, "eval", "--family", "so0", "--n", "2",
            "--sigma", "10", "--t", "0.1", "--r", "75",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--sigma=nan", "--t=inf", "--r=nan", "--r=inf", "--r=-inf"])
    def test_non_finite_input_is_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "eval", "--family", "so0", "--n", "3", flag)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "finite" in err

    def test_bad_family(self, capsys):
        code, _, _ = run(capsys, "eval", "--family", "e8", "--sigma", "0", "--t", "0")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_non_positive_tolerance_is_usage_error(self, capsys, tol):
        # --tol nan and --tol inf exited 0 with the unrefined seed estimate
        # of the SO0 integral (+0.252564605763352 against ...405)
        code, out, err = run(capsys, "eval", "--family", "so0", "--n", "3", "--sigma", "0.3",
                             "--t", "1", "--r", "2", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_non_finite_tolerance_in_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": NaN}')
        code, out, err = run(capsys, "eval", "--family", "so0", "--n", "3", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestVerify:
    def test_default_run_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--out", str(out_file))
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["failed"] == 0
        assert report["passed"] >= 20

    def test_selected_checks_pass(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "verify", "--checks",
            "gamma-duplication,gamma-recurrence,axis-normalization,tree-suite",
            "--out", str(out_file),
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["failed"] == 0
        assert {c["check_id"] for c in report["checks"]} == {
            "gamma-duplication", "gamma-recurrence", "axis-normalization", "tree-suite",
        }
        for entry in report["checks"]:
            assert {"check_id", "anchor", "achieved_error", "tolerance", "pass"} <= set(entry)
            assert entry["pass"] is True
            assert entry["achieved_error"] <= entry["tolerance"]

    def test_gamma_perturbation_fails_duplication(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify", "--gamma-perturbation", "1e-6",
            "--checks", "gamma-duplication,gamma-recurrence",
            "--out", str(out_file),
        )
        assert code == 1
        report = json.loads(out_file.read_text())
        failures = [c["check_id"] for c in report["checks"] if not c["pass"]]
        assert failures == ["gamma-duplication"]

    def test_empty_selection_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--checks", "")
        assert code == 2

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--checks", "no-such-check")
        assert code == 2


class TestTree:
    def test_involutive_example(self, capsys):
        code, out, _ = run(
            capsys, "tree", "--m-factors", "3", "--n-factors", "0", "--radius", "4"
        )
        assert code == 0
        assert "1, 3, 6, 12, 24" in out
        assert "pair counts constant on each shell: yes" in out

    def test_free_group_example(self, capsys):
        code, out, _ = run(
            capsys,
            "tree", "--m-factors", "0", "--n-factors", "2", "--radius", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["sphere_sizes"] == [1, 4, 12, 36]
        assert data["sizes_match_formula"] is True
        assert data["pair_counts_constant"] is True

    def test_wrong_pair_counts_fail(self, capsys, monkeypatch):
        closed_form = tree.bz_counts

        def off_by_one(*args):
            return {z: c + 1 for z, c in closed_form(*args).items()}

        monkeypatch.setattr(tree, "bz_counts", off_by_one)
        code, out, _ = run(
            capsys, "tree", "--m-factors", "3", "--n-factors", "0", "--radius", "3"
        )
        assert code == 1
        assert "pair counts constant on each shell: NO" in out

    def test_too_small_product_rejected(self, capsys):
        code, _, _ = run(capsys, "tree", "--m-factors", "1", "--n-factors", "0")
        assert code == 2

    def test_capacity_overflow_is_runtime_failure(self, capsys):
        code, _, err = run(
            capsys, "tree", "--m-factors", "0", "--n-factors", "2", "--radius", "25"
        )
        assert code == 1
        assert "cap" in err


class TestConfig:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "family": "so0",
                    "n": 3,
                    "sigma_range": "0:0.5:2",
                    "t_range": "0:0:1",
                }
            )
        )
        code, out, _ = run(capsys, "norm-table", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 rows

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma_range": "0:0.5:2", "t_range": "0:0:1"}))
        code, out, _ = run(
            capsys,
            "norm-table", "--family", "so0", "--n", "2",
            "--config", str(cfg), "--sigma-range", "0:0.4:5",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 6  # 5 sigma values x 1 t

    # --tol is read by eval alone; elsewhere it was accepted and ignored
    @pytest.mark.parametrize("argv", [
        ["tree", "--radius", "2"],
        ["verify", "--checks", "gamma-recurrence"],
        ["norm-table", "--n", "3", "--sigma-range=0:0:1", "--t-range=0:0:1"],
    ], ids=["tree", "verify", "norm-table"])
    def test_tol_flag_is_eval_only(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--tol", "1e-30")
        assert code == 2
        assert out == ""

    def test_config_tol_serves_every_command(self, capsys, tmp_path):
        # one config file may serve several subcommands
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-9, "n": 3, "sigma_range": "0:0:1",
                                   "t_range": "0:0:1", "radius": 2}))
        assert run(capsys, "norm-table", "--config", str(cfg))[0] == 0
        assert run(capsys, "tree", "--config", str(cfg))[0] == 0

    def test_config_tol_is_checked_by_eval_alone(self, capsys, tmp_path):
        # {"tol": 0} made tree and norm-table exit 2, though they never read it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 0, "n": 3, "sigma_range": "0:0:1",
                                   "t_range": "0:0:1", "radius": 2}))
        assert run(capsys, "norm-table", "--config", str(cfg))[0] == 0
        assert run(capsys, "tree", "--config", str(cfg))[0] == 0
        code, out, err = run(capsys, "eval", "--family", "so0", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: tolerance must be finite and positive\n"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, _ = run(capsys, "norm-table", "--config", str(cfg))
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "norm-table", "--config", "/nonexistent.json")
        assert code == 2

    def test_usage_error_without_subcommand(self, capsys):
        assert main([]) == 2
