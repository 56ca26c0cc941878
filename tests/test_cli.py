import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import dephimetry.cli as cli
from dephimetry import GeneratorSpec, build_c2, dephase, encode_phase, ghz_state
from dephimetry.errors import NumericalConsistencyError


def run(args):
    return cli.main(args)


def read_json(path):
    return json.loads(path.read_text())


def load_repo_module(folder, name):
    path = Path(__file__).resolve().parent.parent / folder / name
    spec = importlib.util.spec_from_file_location(Path(name).stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["bound"]) == 1

    def test_domain_error_is_usage(self, capsys):
        # closed form rejects alpha = 1 for the exponential-decay family
        assert run(["bound", "--n", "3", "--family", "c2", "--alpha", "1.0"]) == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        pytest.param(["bound", "--n", "0", "--family", "identity"], "n must", id="n-zero"),
        pytest.param(["bound", "--n", "30", "--family", "c1", "--two-beta2", "inf"],
                     "two_beta2", id="two-beta2-inf"),
        pytest.param(["bound", "--n", "3", "--family", "identity", "--two-beta2", "nan"],
                     "two_beta2", id="two-beta2-nan"),
        pytest.param(["bound", "--n", "30", "--family", "c1", "--two-beta2", "800"],
                     "two_beta2", id="reference-overflow"),
        pytest.param(["bound", "--n", "10", "--family", "c2", "--two-beta2", "800"],
                     "two_beta2", id="reference-overflow-dense"),
        pytest.param(["bound", "--n", "3", "--family", "identity", "--alpha", "nan"],
                     "alpha", id="alpha-nan"),
        pytest.param(["dephase", "--n", "2", "--family", "identity", "--two-beta2", "inf"],
                     "two_beta2", id="dephase-inf"),
        pytest.param(["simulate", "--n", "2", "--two-beta2", "nan", "--shots", "4",
                      "--seed", "1"], "two_beta2", id="simulate-nan"),
        pytest.param(["simulate", "--n", "2", "--two-beta2", "nan", "--shots", "4"],
                     "two_beta2", id="simulate-nan-no-seed"),
        pytest.param(["simulate", "--n", "2", "--two-beta2", "0", "--shots", "4",
                      "--seed", "1"], "two_beta2", id="simulate-zero-noise"),
        pytest.param(["simulate", "--n", "10", "--state", "product-plus", "--two-beta2", "0",
                      "--shots", "4"], "two_beta2", id="simulate-zero-noise-no-seed"),
        pytest.param(["figure", "scaling", "--n-max", "0"], "--n-max", id="n-max-zero"),
        pytest.param(["figure", "scaling", "--two-beta2", "800"], "two_beta2",
                     id="scaling-overflow"),
        pytest.param(["figure", "scaling", "--two-beta2", "nan"], "two_beta2",
                     id="scaling-nan"),
        pytest.param(["figure", "scaling", "--two-beta2", "-1"], "two_beta2",
                     id="scaling-negative"),
        pytest.param(["figure", "comparison", "--n-points", "-3"], "--n-points",
                     id="n-points-negative"),
        pytest.param(["figure", "comparison", "--b2-points", "0"], "--b2-points",
                     id="b2-points-zero"),
        pytest.param(["figure", "comparison", "--b2-min", "0"], "--b2-min", id="b2-min-zero"),
        pytest.param(["figure", "comparison", "--b2-min", "800"], "--b2-min",
                     id="b2-min-overflow"),
        pytest.param(["figure", "comparison", "--b2-max", "800"], "--b2-max",
                     id="b2-max-overflow"),
    ])
    def test_bad_family_args_refused_up_front(self, args, named, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    def test_bound_violation_exit_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "qfi", lambda rho, gen: 1e9)
        assert run(["bound", "--n", "2", "--family", "c1", "--alpha", "0.0"]) == 2
        assert "violation" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalConsistencyError("lost positivity")

        monkeypatch.setattr(cli, "dephase", boom)
        assert run(["bound", "--n", "2", "--family", "c1", "--alpha", "0.0"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_error_exit_three(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh failed")

        monkeypatch.setattr(cli, "qfi", boom)
        assert run(["qfi", "--n", "2"]) == 3


class TestBound:
    def test_contract_example(self, capsys):
        assert run([
            "bound", "--state", "ghz", "--n", "2", "--family", "c1",
            "--alpha", "0", "--two-beta2", "0.5",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_rho"] == 4.0
        assert payload["main_bound"] == 2.0
        assert payload["delta2_c"] == 0.25
        assert math.isclose(payload["f_rho_bar"], 1.4715177646857693, rel_tol=1e-6)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run([
            "bound", "--n", "2", "--family", "c1", "--alpha", "0",
            "--format", "csv", "--out", str(out),
        ]) == 0
        header, row = out.read_text().splitlines()
        assert header.startswith("family,n,alpha")
        assert row.startswith("c1,2,0,0.5,0.25,4,")

    def test_zero_noise_bound_is_qfi(self, capsys):
        assert run(["bound", "--n", "3", "--family", "c1", "--alpha", "0.2",
                    "--two-beta2", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["main_bound"] == payload["f_rho"] == 9.0
        assert payload["delta2_c"] == 0.0

    def test_collective_alpha_one_no_crash(self, capsys):
        assert run(["bound", "--n", "3", "--family", "c1", "--alpha", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta2_c"] == 0.5

    def test_large_n_uses_closed_form(self, capsys):
        assert run(["bound", "--state", "ghz", "--n", "500", "--family",
                    "identity", "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isclose(payload["delta2_c"], 0.001, rel_tol=1e-12)
        assert payload["f_rho_bar"] == pytest.approx(
            250_000 * math.exp(-250.0), rel=1e-9
        )

    def test_product_plus_large_n_leaves_fbar_empty(self, capsys):
        assert run(["bound", "--state", "product-plus", "--n", "64",
                    "--family", "identity", "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_rho_bar"] is None
        assert payload["f_rho"] == 64.0


class TestQfi:
    def test_plain(self, capsys):
        assert run(["qfi", "--state", "ghz", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"state": "ghz", "n": 3, "f_rho": pytest.approx(9.0, rel=1e-9)}

    def test_with_family(self, capsys):
        assert run(["qfi", "--n", "2", "--family", "c1", "--alpha", "0",
                    "--two-beta2", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isclose(payload["f_rho_bar"], 1.4715177646857693, rel_tol=1e-9)

    def test_too_large(self, capsys):
        # qfi, dephase and simulate share the one dense size limit
        for command in (["qfi"], ["dephase"], ["simulate", "--shots", "4", "--seed", "1"]):
            assert run(command + ["--n", "11"]) == 1
            assert capsys.readouterr().err == "error: dense states are limited to n <= 10\n"


class TestDephase:
    def test_json_round_trip(self, capsys):
        assert run(["dephase", "--state", "ghz", "--n", "2", "--family", "c2",
                    "--alpha", "0.4", "--two-beta2", "0.6", "--phi", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        got = np.array(payload["real"]) + 1j * np.array(payload["imag"])
        gen = GeneratorSpec.qubits(2)
        expected = encode_phase(
            dephase(ghz_state(2), gen, build_c2(2, 0.6, 0.4)), gen, 0.3
        )
        assert payload["dim"] == 4
        np.testing.assert_allclose(got, expected.entries, atol=1e-15)

    def test_csv_shape(self, tmp_path):
        out = tmp_path / "state.csv"
        assert run(["dephase", "--n", "2", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,col,real,imag"
        assert len(lines) == 1 + 16


class TestSimulate:
    def test_summary_key_order_and_values(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "1", "--shots", "2000", "--seed", "7",
                    "--out", str(out)]) == 0
        payload = read_json(out)
        assert list(payload) == [
            "state", "n", "family", "alpha", "two_beta2", "phi0", "delta_phi",
            "shots", "seed", "predicted_mse", "empirical_mse_best", "mse_stderr",
            "empirical_mean", "mean_stderr", "z_score", "undefined_variance",
        ]
        assert payload["seed"] == 7
        assert payload["undefined_variance"] is False
        assert abs(payload["z_score"]) <= 3.0

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["simulate", "--n", "2", "--family", "c1", "--alpha", "0.3",
                "--shots", "3000", "--seed", "13"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_drawn_and_echoed(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "1", "--shots", "50", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "drawn seed" in err
        payload = read_json(out)
        assert payload["seed"] == int(err.split(":")[1].strip())

    def test_shots_one_undefined_variance(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "1", "--shots", "1", "--seed", "5",
                    "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["undefined_variance"] is True
        assert payload["z_score"] is None
        assert payload["mse_stderr"] is None

    def test_per_shot_csv(self, tmp_path):
        out = tmp_path / "sim.json"
        shots_file = tmp_path / "shots.csv"
        assert run(["simulate", "--n", "2", "--shots", "40", "--seed", "3",
                    "--out", str(out), "--per-shot", str(shots_file)]) == 0
        lines = shots_file.read_text().splitlines()
        assert lines[0] == "shot,phi_1,phi_2,outcome,estimate"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "0"
        int(first[3])
        float(first[4])


class TestSweepConfig:
    def test_parse_full(self):
        text = """
        # grid
        state = ghz , product-plus
        family = c1
        n = 2, 4
        alpha = 0.0, 0.5   # two correlation strengths
        two_beta2 = 0.5
        """
        grids = cli.parse_sweep_config(text)
        assert grids["state"] == ["ghz", "product-plus"]
        assert grids["n"] == [2, 4]
        assert grids["alpha"] == [0.0, 0.5]

    def test_duplicate_key_line_numbered(self):
        with pytest.raises(cli.ConfigError, match="line 2: duplicate"):
            cli.parse_sweep_config("n = 2\nn = 3\n")

    def test_unknown_key_line_numbered(self):
        with pytest.raises(cli.ConfigError, match="line 3: unknown key"):
            cli.parse_sweep_config("# c\n\nbogus = 1\n")

    def test_missing_equals(self):
        with pytest.raises(cli.ConfigError, match="line 1: expected"):
            cli.parse_sweep_config("just words\n")

    def test_bad_value_type(self):
        with pytest.raises(cli.ConfigError, match="line 1: bad n"):
            cli.parse_sweep_config("n = two\n")

    def test_bad_choice(self):
        with pytest.raises(cli.ConfigError, match="line 1: state"):
            cli.parse_sweep_config("state = w\n")

    def test_missing_keys_listed(self):
        with pytest.raises(cli.ConfigError, match="missing keys"):
            cli.parse_sweep_config("state = ghz\n")


class TestSweep:
    def write_config(self, tmp_path, text):
        path = tmp_path / "grid.cfg"
        path.write_text(text)
        return str(path)

    def test_cardinality(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            "state = ghz\nfamily = c1, c2\nn = 2, 3\nalpha = 0.1, 0.4\ntwo_beta2 = 0.5\n",
        )
        assert run(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 8

    def test_empty_grid_header_only(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "state =\nfamily = c1\nn = 2\nalpha = 0\ntwo_beta2 = 0.5\n"
        )
        assert run(["sweep", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out == "family,n,alpha,two_beta2,delta2_c,f_rho,f_rho_bar,main_bound,error_bound,reference_g\n"

    def test_repeated_covariance_computed_once(self, tmp_path, monkeypatch):
        # c1 and c2 coincide at alpha = 0: 8 points, 3 covariances per state
        calls = []
        original = cli.qfi

        def counted(rho, gen):
            calls.append(rho.dim)
            return original(rho, gen)

        monkeypatch.setattr(cli, "qfi", counted)
        cfg = self.write_config(
            tmp_path,
            "state = ghz, product-plus\nfamily = c1, c2\nn = 3\nalpha = 0, 0.5\n"
            "two_beta2 = 0.5\n",
        )
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 6
        rows = out.read_text().splitlines()[1:]
        points = [(state, family, 3, alpha, 0.5) for state in ("ghz", "product-plus")
                  for family in ("c1", "c2") for alpha in (0.0, 0.5)]
        assert rows == [cli.grid_report(*point).csv_row() for point in points]

    def test_missing_file(self, capsys):
        assert run(["sweep", "--config", "/nonexistent/grid.cfg"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "n = 2\nn = 3\n")
        assert run(["sweep", "--config", cfg]) == 1
        assert "line 2" in capsys.readouterr().err


class TestFigure:
    def test_scaling_panel_columns(self, tmp_path):
        assert run(["figure", "scaling", "--out", str(tmp_path),
                    "--n-max", "100", "--n-points", "5"]) == 0
        lines = (tmp_path / "scaling-panel.csv").read_text().splitlines()
        assert lines[0] == "n,independent,collective,c1,c2"
        first = lines[1].split(",")
        # N=1: independent and collective coincide
        assert first[0] == "1"
        assert first[1] == first[2] == first[3] == first[4]

    def test_sweep_reproduces_scaling_rows(self, tmp_path):
        assert run(["figure", "scaling", "--out", str(tmp_path),
                    "--n-max", "100", "--n-points", "5"]) == 0
        lines = (tmp_path / "scaling-panel.csv").read_text().splitlines()[1:]
        ns = [row.split(",")[0] for row in lines]
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "state = ghz\nfamily = c1\nn = " + ", ".join(ns)
            + "\nalpha = 0.9\ntwo_beta2 = 0.5\n"
        )
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        sweep_rows = out.read_text().splitlines()[1:]
        for fig_row, sweep_row in zip(lines, sweep_rows):
            fig_c1 = fig_row.split(",")[3]
            sweep_error_bound = sweep_row.split(",")[8]
            assert fig_c1 == sweep_error_bound

    def test_comparison_panel_files(self, tmp_path):
        assert run(["figure", "comparison", "--out", str(tmp_path),
                    "--n-max", "1000", "--n-points", "4", "--b2-points", "6"]) == 0
        grid = (tmp_path / "comparison-panel-grid.csv").read_text().splitlines()
        boundary = (tmp_path / "comparison-panel-boundary.csv").read_text().splitlines()
        assert grid[0] == "n,two_beta2,independent_error_bound,reference_g,independent_tighter"
        assert boundary[0] == "n,boundary_two_beta2,approx_two_beta2"
        assert len(grid) == 1 + 4 * 6
        assert len(boundary) == 1 + 4
        for row in grid[1:]:
            n, b2, ours, theirs, flag = row.split(",")
            assert flag == ("1" if float(ours) > float(theirs) else "0")
        values = [float(r.split(",")[1]) for r in boundary[1:]]
        assert values == sorted(values, reverse=True)
        for row in boundary[1:]:
            _, exact, approx = row.split(",")
            assert 1.0 < float(exact) / float(approx) < 2.0

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            assert run(["figure", "scaling", "--out", str(d),
                        "--n-max", "50", "--n-points", "4"]) == 0
        assert (a / "scaling-panel.csv").read_bytes() == (b / "scaling-panel.csv").read_bytes()

    def test_figure_data_script(self, tmp_path, capsys):
        script = load_repo_module("scripts", "figure_data.py")
        assert script.run(["--out", str(tmp_path)]) == 0
        headers = {
            "scaling-panel.csv": "n,independent,collective,c1,c2",
            "comparison-panel-grid.csv":
                "n,two_beta2,independent_error_bound,reference_g,independent_tighter",
            "comparison-panel-boundary.csv": "n,boundary_two_beta2,approx_two_beta2",
        }
        for name, header in headers.items():
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == header and len(lines) > 1

    def test_invalid_panel(self, capsys):
        assert run(["figure", "volume"]) == 1


class TestSaturationScript:
    def test_small_run_prints_table(self, capsys):
        script = load_repo_module("scripts", "saturation_experiment.py")
        assert script.run(["--shots", "64"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["case", "pred", "1/F", "emp", "mse", "stderr", "z"]
        assert len(lines) == 1 + 4 + 1 and lines[-1].startswith("worst |z| = ")

    def test_one_shot_refused_with_message(self, capsys):
        script = load_repo_module("scripts", "saturation_experiment.py")
        assert script.run(["--shots", "1"]) == 1
        err = capsys.readouterr().err
        assert "need at least 2" in err and "Traceback" not in err


def test_trace_names_all_present():
    # The benchmark's per-layer metrics rebind these names; a missing one
    # would silently read zero.
    import dephimetry

    tracing = load_repo_module("bench", "tracing.py")
    with tracing.instrumented(tracing.Tracer(0), dephimetry) as missing:
        assert missing == []
