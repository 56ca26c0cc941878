import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import dephimetry.cli as cli
from dephimetry import (
    DensityMatrix,
    GeneratorSpec,
    build_c2,
    dephase,
    encode_phase,
    ghz_state,
    simulate,
)
from dephimetry.bounds import _fmt
from dephimetry.bayes import CHUNK_SHOTS
from dephimetry.core import _trusted
from dephimetry.errors import NumericalConsistencyError
from dephimetry.fisher import _product_plus_qfi

from helpers import collect_shots, collective_and_local, dense_plus_qfi


def run(args):
    return cli.main(args)


def read_json(path):
    return json.loads(path.read_text())


# A point that takes the dense path of cli.dephase and cli.qfi.
PLUS_DENSE = ["--state", "product-plus", "--n", "3", "--family", "c2", "--alpha", "0.5"]

# A sweep grid past the site limit, refused before any output is written.
HUGE_N_SWEEP = (
    f"state = ghz, product-plus\nfamily = identity\nn = {10**155}\nalpha = 0\ntwo_beta2 = 0.5\n"
)
# A one-point sweep grid.
ONE_POINT_SWEEP = "state = ghz\nfamily = identity\nn = 2\nalpha = 0\ntwo_beta2 = 0.5\n"
# Bytes written to an output path before a command that must refuse.
SENTINEL = b"precious\n"
# The refusal of a covariance whose entries sum past the float range.
FLOAT_RANGE = "error: covariance entries sum past the float range\n"


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
        # the exponential-decay family takes alpha in [0, 1] only
        assert run(["bound", "--n", "3", "--family", "c2", "--alpha", "1.5"]) == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        pytest.param(["bound", "--n", "0", "--family", "identity"], "n must", id="n-zero"),
        pytest.param(["bound", "--n", str(10**18 + 1), "--family", "identity"],
                     "n must be between 1 and 1000000000000000000", id="n-limit"),
        pytest.param(["bound", "--n", str(10**155), "--family", "identity"],
                     "n must be between 1 and 1000000000000000000", id="n-huge-ghz"),
        pytest.param(["bound", "--state", "product-plus", "--n", str(10**309)],
                     "n must be between 1 and 1000000000000000000", id="n-huge-product-plus"),
        pytest.param(["sweep", "--config", "{config}"],
                     "n must be between 1 and 1000000000000000000", id="sweep-n-huge"),
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
        pytest.param(["simulate", "--n", "10", "--state", "product-plus", "--shots",
                      str(2**63)], "shots must be between 1 and 9223372036854775807\n",
                     id="simulate-shots-limit"),
        pytest.param(["simulate", "--n", "2", "--shots", "0"], "shots must be between 1",
                     id="simulate-zero-shots-no-seed"),
        pytest.param(["simulate", "--n", "100000000000", "--shots", "10"],
                     "error: dense states are limited to n <= 10\n",
                     id="simulate-sites-before-shots"),
        pytest.param(["dephase", "--n", "2", "--phi", "inf"], "error: phi must be finite\n",
                     id="dephase-phi-inf"),
        pytest.param(["simulate", "--n", "2", "--shots", "10", "--phi0", "nan"],
                     "error: phi0 must be finite\n", id="simulate-phi0-nan-no-seed"),
        pytest.param(["simulate", "--n", "2", "--shots", "10", "--seed", "1", "--delta-phi", "inf"],
                     "error: delta_phi must be finite\n", id="simulate-delta-phi-inf"),
        # a covariance whose entries sum past the float range: no nan cells,
        # no eigensolver failure and no RuntimeWarning
        pytest.param(["dephase", "--state", "product-plus", "--n", "2", "--family", "c1",
                      "--alpha", "0.5", "--two-beta2", "1e308", "--format", "csv"],
                     FLOAT_RANGE, id="dephase-covariance-overflow"),
        pytest.param(["dephase", "--state", "product-plus", "--n", "10", "--family", "c1",
                      "--alpha", "0.5", "--two-beta2", "1e307", "--format", "csv"],
                     FLOAT_RANGE, id="dephase-n10-covariance-overflow"),
        pytest.param(["qfi", "--state", "product-plus", "--n", "3", "--family", "c2",
                      "--alpha", "0.4", "--two-beta2", "1e308"],
                     FLOAT_RANGE, id="qfi-covariance-overflow"),
        pytest.param(["simulate", "--n", "2", "--family", "identity", "--two-beta2", "1e308",
                      "--shots", "10", "--seed", "1"],
                     FLOAT_RANGE, id="simulate-covariance-overflow"),
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
        pytest.param(["figure", "comparison", "--n-points", "501"],
                     "--n-points must be between 1 and 500", id="n-points-limit"),
        pytest.param(["figure", "scaling", "--b2-points", "100000000000"],
                     "--b2-points must be between 1 and 500", id="b2-points-limit"),
        pytest.param(["figure", "scaling", "--n-max", "1000000000000000001"],
                     "--n-max must be between 1 and 1000000000000000000", id="n-max-limit"),
        pytest.param(["figure", "comparison", "--b2-min", "0"], "--b2-min", id="b2-min-zero"),
        pytest.param(["figure", "comparison", "--b2-min", "800"], "--b2-min",
                     id="b2-min-overflow"),
        pytest.param(["figure", "comparison", "--b2-max", "800"], "--b2-max",
                     id="b2-max-overflow"),
    ])
    def test_bad_family_args_refused_up_front(self, args, named, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_bytes(SENTINEL)
        config = tmp_path / "grid.cfg"
        config.write_text(HUGE_N_SWEEP)
        args = [a.format(config=config) for a in args]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert out.read_bytes() == SENTINEL

    @pytest.mark.parametrize("command", ["qfi", "bound", "dephase", "simulate"])
    @pytest.mark.parametrize("state", ["ghz", "product-plus"])
    @pytest.mark.parametrize("family", ["c1", "c2"])
    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--alpha", "-0.5", "alpha must lie in [0, 1]", id="alpha-negative"),
        pytest.param("--alpha", "1.5", "alpha must lie in [0, 1]", id="alpha-above-one"),
        pytest.param("--alpha", "nan", "alpha must be finite", id="alpha-nan"),
        pytest.param("--two-beta2", "-1", "two_beta2 must be nonnegative and finite",
                     id="two-beta2-negative"),
        pytest.param("--two-beta2", "inf", "two_beta2 must be nonnegative and finite",
                     id="two-beta2-inf"),
        pytest.param("--two-beta2", "nan", "two_beta2 must be nonnegative and finite",
                     id="two-beta2-nan"),
    ])
    def test_family_args_refused_on_every_route(
        self, command, state, family, flag, value, message, tmp_path, capsys
    ):
        # the GHZ closed form checks family arguments as the builders do, and
        # every refusal comes before the output is opened
        out = tmp_path / "out"
        out.write_bytes(SENTINEL)
        shots = ["--shots", "5", "--seed", "1"] if command == "simulate" else []
        args = [command, "--state", state, "--n", "3", "--family", family, flag, value, *shots]
        assert run(args + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert out.read_bytes() == SENTINEL

    # The work of each command, which an unwritable --out must stop first.
    WORK = {"bound": "grid_report", "qfi": "qfi", "dephase": "dephase",
            "sweep": "grid_report", "simulate": "simulate", "figure": "_family_point"}

    @pytest.mark.parametrize("args", [
        ["bound", "--n", "2"],
        ["qfi", *PLUS_DENSE],
        ["dephase", "--n", "2"],
        ["sweep", "--config", "{config}"],
        ["simulate", "--n", "2", "--shots", "4", "--seed", "1"],
        ["figure", "scaling", "--n-max", "10"],
    ], ids=lambda args: args[0])
    def test_unwritable_out_is_usage_error(self, args, tmp_path, monkeypatch, capsys):
        # --out below a regular file: no file or directory can be made there,
        # and the command finds that out before its work
        def never(*args):
            raise AssertionError("the work ran before --out was checked")

        monkeypatch.setattr(cli, self.WORK[args[0]], never)
        config = tmp_path / "grid.cfg"
        config.write_text(ONE_POINT_SWEEP)
        args = [a.format(config=config) for a in args]
        assert run(args + ["--out", str(config / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_per_shot_refused_before_any_seed(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("sampled before the --per-shot file was opened")

        monkeypatch.setattr(cli, "simulate", never)
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "2", "--shots", "4", "--out", str(out),
                    "--per-shot", str(tmp_path / "missing" / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_refused_before_the_work(self, tmp_path, monkeypatch, capsys):
        # numpy refuses a negative seed only as the first chunk is seeded,
        # after dephase and optimal_povm (2 s and 89 MiB at product-plus
        # n = 10); the gate beside --shots refuses it before either output
        # opens
        def never(*args):
            raise AssertionError("built the measurement for a negative seed")

        monkeypatch.setattr(cli, "optimal_povm", never)
        out, per_shot = tmp_path / "sim.json", tmp_path / "shots.csv"
        out.write_bytes(SENTINEL)
        assert run(["simulate", "--state", "product-plus", "--n", "10", "--shots", "4",
                    "--seed", "-1", "--out", str(out), "--per-shot", str(per_shot)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be a nonnegative integer, not -1\n"
        assert captured.out == ""
        assert out.read_bytes() == SENTINEL
        assert not per_shot.exists()

    @pytest.mark.parametrize("alias", ["dot-path", "symlink", "hardlink"])
    def test_out_and_per_shot_naming_one_file_refused(self, alias, tmp_path, monkeypatch,
                                                      capsys):
        # both outputs into one file left the JSON followed by the CSV's tail;
        # the pair is refused before either file is opened
        def never(*args):
            raise AssertionError("sampled into two outputs that name one file")

        monkeypatch.setattr(cli, "simulate", never)
        monkeypatch.chdir(tmp_path)
        same = Path("same.txt")
        per_shot = "./same.txt"
        if alias != "dot-path":
            same.write_text("earlier\n")
            per_shot = "alias.txt"
            (os.symlink if alias == "symlink" else os.link)(same, per_shot)
        assert run(["simulate", "--n", "2", "--shots", "50", "--seed", "1",
                    "--out", str(same), "--per-shot", per_shot]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out and --per-shot name one file: {per_shot}\n"
        if alias == "dot-path":
            assert list(tmp_path.iterdir()) == []
        else:
            assert same.read_text() == "earlier\n"

    @pytest.mark.parametrize("args", [
        ["bound", "--n", "3", "--alpha", "nan"],
        ["qfi", "--n", "3", "--family", "c1", "--alpha", "nan"],
        ["dephase", "--n", "2", "--phi", "nan"],
        ["sweep", "--config", "{config}"],
        ["simulate", "--n", "2", "--shots", "4", "--seed", "1", "--alpha", "nan"],
    ], ids=lambda args: args[0])
    def test_refused_argument_keeps_earlier_out(self, args, tmp_path, capsys):
        # the refusal comes before --out is opened, so an earlier file stays
        config = tmp_path / "grid.cfg"
        config.write_text(ONE_POINT_SWEEP.replace("alpha = 0", "alpha = nan"))
        out = tmp_path / "prev.txt"
        out.write_text("earlier\n")
        args = [a.format(config=config) for a in args]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_text() == "earlier\n"

    def test_unwritable_out_leaves_no_per_shot_file(self, tmp_path, capsys):
        per_shot = tmp_path / "ok.csv"
        assert run(["simulate", "--n", "2", "--shots", "4", "--seed", "1", "--per-shot",
                    str(per_shot), "--out", str(tmp_path / "missing" / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_simulate_removes_both_outputs(self, tmp_path, monkeypatch, capsys):
        def failing(*args):
            raise NumericalConsistencyError("sampler failed")

        monkeypatch.setattr(cli, "simulate", failing)
        assert run(["simulate", "--n", "2", "--shots", "4", "--seed", "1", "--per-shot",
                    str(tmp_path / "ok.csv"), "--out", str(tmp_path / "sim.json")]) == 3
        assert capsys.readouterr().err == "numerical failure: sampler failed\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_removes_the_partial_file(self, tmp_path, monkeypatch, capsys):
        # the failure comes after part of the --per-shot text is written
        def half_written(n, out):
            out.write("shot,phi_1,phi_2,outcome,estimate\n")

            def write(*views):
                raise OSError("disk full")

            return write

        monkeypatch.setattr(cli, "_per_shot_writer", half_written)
        out, per_shot = tmp_path / "sim.json", tmp_path / "ok.csv"
        assert run(["simulate", "--n", "2", "--shots", "4", "--seed", "1", "--per-shot",
                    str(per_shot), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert not out.exists() and not per_shot.exists()

    def test_failed_bound_removes_out_but_spares_a_link(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalConsistencyError("no report")

        monkeypatch.setattr(cli, "grid_report", failing)
        out = tmp_path / "bound.json"
        assert run(["bound", "--n", "2", "--out", str(out)]) == 3
        assert not out.exists()
        # a link is truncated through, as any write would, but not removed
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        assert run(["bound", "--n", "2", "--out", str(link)]) == 3
        assert link.is_symlink() and target.read_text() == ""

    def test_bound_violation_exit_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "qfi", lambda rho, gen, cov=None: 1e9)
        assert run(["bound", *PLUS_DENSE]) == 2
        assert "violation" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalConsistencyError("lost positivity")

        monkeypatch.setattr(cli, "qfi", boom)
        assert run(["bound", *PLUS_DENSE]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_error_exit_three(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh failed")

        monkeypatch.setattr(cli, "qfi", boom)
        assert run(["qfi", *PLUS_DENSE]) == 3


class TestBound:
    @pytest.mark.parametrize("family", ["identity", "c1", "c2"])
    def test_site_limit_accepted(self, family, capsys):
        assert run(["bound", "--n", str(cli.N_MAX), "--family", family, "--alpha", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == cli.N_MAX

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

    @pytest.mark.parametrize("args", [
        ["--n", "13805", "--two-beta2", "0"],
        ["--n", "13805", "--two-beta2", "1e-30"],
        ["--n", str(10**9), "--two-beta2", "0"],
        ["--n", str(10**12), "--two-beta2", "0"],
        ["--state", "product-plus", "--n", str(10**9), "--two-beta2", "0"],
    ], ids=["ghz-13805", "ghz-13805-1e-30", "ghz-1e9", "ghz-1e12", "plus-1e9"])
    def test_large_noiseless_rows_are_no_violation(self, args, capsys):
        # f_rho_bar = f_rho sits within rounding of a bound past 6.7e7,
        # where one ulp exceeds an absolute 1e-8
        assert run(["bound", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isclose(payload["f_rho_bar"], payload["main_bound"], rel_tol=1e-15)

    @pytest.mark.parametrize("state", ["ghz", "product-plus"])
    @pytest.mark.parametrize("n", [1, 3, 10, 10**6])
    def test_c2_alpha_one_is_the_collective_row(self, state, n, capsys):
        rows = []
        for family in ("c2", "c1"):
            assert run(["bound", "--state", state, "--n", str(n), "--family", family,
                        "--alpha", "1"]) == 0
            rows.append(json.loads(capsys.readouterr().out))
        assert rows[0].pop("family") == "c2" and rows[1].pop("family") == "c1"
        assert rows[0] == rows[1]

    def test_product_plus_large_n_leaves_fbar_empty(self, capsys):
        assert run(["bound", "--state", "product-plus", "--n", "64",
                    "--family", "identity", "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_rho_bar"] is None
        assert payload["f_rho"] == 64.0


class TestDephasedQfiRoute:
    """GHZ takes its closed form and product-plus under C = a 11^T + b I the
    Schur-Weyl blocks; product-plus under any other covariance keeps the
    dense path (cli.qfi of the probe and the covariance)."""

    def dense_calls(self, monkeypatch, args, capsys):
        calls = []
        original = cli.qfi
        monkeypatch.setattr(cli, "qfi", lambda rho, gen, cov=None: calls.append(rho.dim)
                            or original(rho, gen, cov))
        assert run(args) == 0
        return calls, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("state, family, alpha, dense", [
        ("product-plus", "c2", 0.5, True),
        ("product-plus", "c2", 0.0, False),
        ("product-plus", "c1", 0.5, False),
        ("product-plus", "c1", 1.0, False),
        ("product-plus", "identity", 0.0, False),
    ])
    def test_bound(self, state, family, alpha, dense, monkeypatch, capsys):
        calls, payload = self.dense_calls(monkeypatch, [
            "bound", "--state", state, "--n", "4", "--family", family, "--alpha", str(alpha)], capsys)
        assert calls == ([16] if dense else [])
        gen = GeneratorSpec.qubits(4)
        probe = cli.PROBES[state][0](4)
        cov = cli._family_matrix(family, 4, alpha, 0.5)
        expected = cli.qfi(dephase(probe, gen, cov), gen)
        assert math.isclose(payload["f_rho_bar"], expected, rel_tol=1e-12)

    def test_qfi_command(self, monkeypatch, capsys):
        # the noiseless f_rho is exact; f_rho_bar comes from blocks
        calls, payload = self.dense_calls(monkeypatch, [
            "qfi", "--state", "product-plus", "--n", "5", "--family", "c1", "--alpha", "0.3"],
            capsys)
        assert calls == []
        assert payload["f_rho"] == 5.0
        gen = GeneratorSpec.qubits(5)
        rho = dephase(cli.PROBES["product-plus"][0](5), gen, cli._family_matrix("c1", 5, 0.3, 0.5))
        assert math.isclose(payload["f_rho_bar"], cli.qfi(rho, gen), rel_tol=1e-12)

    @pytest.mark.parametrize("family, alpha", [
        ("identity", 0.0), ("c1", 0.0), ("c1", 0.5), ("c1", 0.9), ("c1", 1.0),
        ("c2", 0.2), ("c2", 0.5), ("c2", 0.9), ("c2", 1.0),
    ])
    def test_ghz_closed_form_matches_dense(self, family, alpha):
        # 1e-12 wherever the value is a normal float; below that the dense
        # eigenproblem drifts (4e-9 relative at c2 n = 10, alpha = 0.9, 2 beta^2 = 10)
        for n in range(1, 11):
            gen = GeneratorSpec.qubits(n)
            for two_beta2 in (1e-6, 0.1, 0.5, 2.0, 10.0):
                cov = cli._family_matrix(family, n, alpha, two_beta2)
                dense = cli.qfi(dephase(ghz_state(n), gen, cov), gen)
                closed = cli.grid_report("ghz", family, n, alpha, two_beta2).f_rho_bar
                assert math.isclose(closed, dense, rel_tol=1e-12, abs_tol=sys.float_info.min), (
                    n, two_beta2)


# A product-plus point on the dense method: its covariance is built.
PLUS_DENSE_N4 = ("product-plus", "c2", 4, 0.5, 0.5)


def strict_json(text):
    """JSON that rejects NaN and Infinity, as json.loads alone does not."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestRoute:
    """cli._route picks one method per family point, before any output opens."""

    @pytest.mark.parametrize("point, dense_state, method, built", [
        pytest.param(("ghz", "c2", 10**6, 0.5, 0.5), False, "closed-form", False,
                     id="ghz-c2-1e6"),
        pytest.param(("product-plus", "c2", 4, 0.5, 0.0), False, "closed-form", False,
                     id="zero-noise"),
        pytest.param(("product-plus", "c1", 4, 0.5, 0.5), False, "schur-weyl", False,
                     id="plus-c1"),
        pytest.param(PLUS_DENSE_N4, False, "dense", True, id="plus-c2"),
        pytest.param(("product-plus", "identity", 11, 0.0, 0.5), False, "none", False,
                     id="plus-past-dense-sizes"),
        pytest.param(("product-plus", "c2", 3, 1 - 2**-53, 0.3), False, "dense", True,
                     id="c2-rounding-coincidence"),
        pytest.param(("ghz", "c1", 3, 0.5, 0.5), True, "closed-form", True,
                     id="dense-command-on-ghz"),
    ])
    def test_method_table(self, point, dense_state, method, built):
        route = cli._route(*point, dense_state=dense_state)
        assert route.method == method
        assert (route.cov is not None) == built
        if built:
            assert route.cov.n == point[2]

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_dense_covariance_built_before_out_opens(self, command, tmp_path, monkeypatch,
                                                     capsys):
        def refuse(*args):
            raise ValueError("no matrix")

        monkeypatch.setattr(cli, "build_c2", refuse)
        state, family, n, alpha, two_beta2 = PLUS_DENSE_N4
        config = tmp_path / "grid.cfg"
        config.write_text(f"state = {state}\nfamily = {family}\nn = {n}\n"
                          f"alpha = {alpha}\ntwo_beta2 = {two_beta2}\n")
        args = {
            "bound": ["bound", "--state", state, "--n", str(n), "--family", family,
                      "--alpha", str(alpha), "--two-beta2", str(two_beta2)],
            "sweep": ["sweep", "--config", str(config)],
        }[command]
        out = tmp_path / "out"
        out.write_bytes(SENTINEL)
        assert run(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no matrix\n"
        assert out.read_bytes() == SENTINEL

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_dense_covariance_built_once_per_point(self, command, tmp_path, monkeypatch):
        # the gate's route goes into grid_report: one build_c2 per dense
        # point (alpha 0.5), none for the Schur-Weyl points (alpha 0)
        calls = []
        monkeypatch.setattr(cli, "build_c2", lambda *args: calls.append(args) or build_c2(*args))
        config = tmp_path / "grid.cfg"
        config.write_text("state = product-plus\nfamily = c2\nn = 3, 4\n"
                          "alpha = 0, 0.5\ntwo_beta2 = 0.5\n")
        args, dense = {
            "bound": (["bound", "--state", "product-plus", "--n", "4", "--family", "c2",
                       "--alpha", "0.5"], [(4, 0.5, 0.5)]),
            "sweep": (["sweep", "--config", str(config)], [(3, 0.5, 0.5), (4, 0.5, 0.5)]),
        }[command]
        assert run(args + ["--out", str(tmp_path / "out")]) == 0
        assert calls == dense

    @pytest.mark.parametrize("n, two_beta2, shots", [
        (2, 1e-320, 3),
        (10, 2.2250738585072014e-308, 20),
    ])
    def test_simulate_subnormal_delta2_refused_up_front(self, n, two_beta2, shots, tmp_path,
                                                       capsys):
        # 1 / delta2_c overflows in the averaging solve: NaN statistics, or a
        # failure after --out had opened
        out = tmp_path / "sim.json"
        out.write_bytes(SENTINEL)
        assert run(["simulate", "--n", str(n), "--family", "identity", "--two-beta2",
                    repr(two_beta2), "--shots", str(shots), "--seed", "1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: simulate needs two_beta2 with delta2_c >= "
                       f"{sys.float_info.min!r}\n")
        assert out.read_bytes() == SENTINEL

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_simulate_smallest_accepted_noise(self, n, tmp_path, capsys):
        # identity noise at 2 beta^2 = n * min has delta2_c = min exactly:
        # finite JSON; half that noise is refused
        smallest = n * sys.float_info.min
        args = ["simulate", "--n", str(n), "--family", "identity", "--shots", "5", "--seed", "1"]
        assert run(args + ["--two-beta2", repr(smallest)]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert math.isfinite(payload["predicted_mse"]) and payload["predicted_mse"] > 0
        assert run(args + ["--two-beta2", repr(smallest / 2)]) == 1
        assert "two_beta2" in capsys.readouterr().err


FAMILY_ALPHAS = [0.0, -0.0, 0.2, 0.5, 0.9, 1.0]
FAMILY_NOISE = [1e-6, 0.1, 0.5, 2.0, 50.0]


class TestFamilyPoint:
    """The split (a, b) of C = a 11^T + b I is declared from the arguments;
    the oracle reads it back from the dense matrix by exact equality."""

    @pytest.mark.parametrize("alpha", FAMILY_ALPHAS)
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("family", ["identity", "c1", "c2"])
    def test_split_is_the_dense_one(self, family, n, alpha):
        for two_beta2 in FAMILY_NOISE:
            split = cli._family_point(family, n, alpha, two_beta2)[2]
            cov = cli._family_matrix(family, n, alpha, two_beta2)
            assert split == collective_and_local(cov), two_beta2
            if split is not None:
                f_bar = cli.grid_report("product-plus", family, n, alpha, two_beta2).f_rho_bar
                assert math.isclose(f_bar, dense_plus_qfi(cov), rel_tol=1e-12), two_beta2

    @pytest.mark.parametrize("n, alpha, two_beta2", [
        *((3, 1 - 2**-53, b2) for b2 in (1e-30, 1e-6, 0.3)),
        *((n, 1e-300, 1e-30) for n in range(3, 11)),
    ])
    def test_rounding_coincidences_take_the_dense_route(self, n, alpha, two_beta2, monkeypatch):
        # the c2 lags round to one value, so the matrix reads as a 11^T + b I;
        # the declared split is None and the dense path agrees with the blocks
        oracle = collective_and_local(cli._family_matrix("c2", n, alpha, two_beta2))
        assert oracle is not None
        assert cli._family_point("c2", n, alpha, two_beta2)[2] is None
        calls = []
        original = cli.qfi
        monkeypatch.setattr(cli, "qfi", lambda rho, gen, cov=None: calls.append(1)
                            or original(rho, gen, cov))
        f_bar = cli.grid_report("product-plus", "c2", n, alpha, two_beta2).f_rho_bar
        assert calls == [1]
        assert math.isclose(f_bar, _product_plus_qfi(n, *oracle), rel_tol=1e-12)

    @pytest.mark.parametrize("args", [
        ["--state", "product-plus", "--family", "c1", "--alpha", "0.5"],
        ["--state", "product-plus", "--family", "identity"],
        ["--state", "product-plus", "--family", "c2", "--alpha", "0"],
        ["--state", "product-plus", "--family", "c2", "--alpha", "1"],
        ["--state", "product-plus", "--family", "c2", "--alpha", "0.5", "--two-beta2", "0"],
        ["--family", "c2", "--alpha", "0.5"],
    ], ids=["plus-c1", "plus-identity", "plus-c2-0", "plus-c2-1", "plus-zero-noise", "ghz-c2"])
    def test_no_matrix(self, args, monkeypatch, capsys):
        # the GHZ, zero-noise and block routes build no n x n covariance
        def refuse(*a, **k):
            raise AssertionError("a dense covariance was built")

        for name in ("build_c1", "build_c2", "CovarianceMatrix"):
            monkeypatch.setattr(cli, name, refuse)
        for command in ("bound", "qfi"):
            assert run([command, "--n", "10", *args]) == 0
            assert json.loads(capsys.readouterr().out)["f_rho_bar"] > 0


MASS_NS = [1, 2, 11, 4097, 65537, 65538, 10**6]
MASS_ALPHAS = [0.0, 0.5, 0.999, 0.999999]


def family_mass(family, n, alpha, two_beta2):
    """1^T C 1 as the CLI's one family point gives it."""
    return cli._family_point(family, n, alpha, two_beta2)[1]


def c2_mass_decimal(n, two_beta2, alpha):
    """1^T C 1 of c2 from the textbook sum_k (n - k) alpha^k form, in 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(alpha)
        if a == 1:
            lagged = Decimal(n * (n - 1) // 2)
        else:
            lagged = a * (n * (1 - a) - 1 + a**n) / (1 - a) ** 2
        return float(Decimal(two_beta2) * (n + 2 * lagged))


class TestFamilyMass:
    @pytest.mark.parametrize("alpha", MASS_ALPHAS)
    @pytest.mark.parametrize("n", MASS_NS)
    def test_c2_matches_the_one_numpy_sum(self, n, alpha):
        lags = np.arange(1, n)
        whole = 0.5 * (n + 2.0 * float(((n - lags) * alpha**lags).sum()))
        assert math.isclose(family_mass("c2", n, alpha, 0.5), whole, rel_tol=1e-14)

    @pytest.mark.parametrize("alpha", MASS_ALPHAS + [1 - 1e-12, 1 - 2**-53, 1.0])
    @pytest.mark.parametrize("n", MASS_NS + [10**12, 10**18])
    def test_c2_matches_decimal(self, n, alpha):
        mass = family_mass("c2", n, alpha, 0.5)
        assert math.isclose(mass, c2_mass_decimal(n, 0.5, alpha), rel_tol=1e-14)

    @pytest.mark.parametrize("two_beta2", [1e-20, 1e-27])
    def test_c2_ghz_at_1e12_sites(self, two_beta2, capsys):
        # O(1) in n: summed lag by lag this would take hours
        assert run(["bound", "--n", str(10**12), "--family", "c2", "--alpha", "0.999999999999",
                    "--two-beta2", str(two_beta2)]) == 0
        payload = json.loads(capsys.readouterr().out)
        mass = c2_mass_decimal(10**12, two_beta2, 0.999999999999)
        assert math.isclose(payload["f_rho_bar"], 1e24 * math.exp(-mass), rel_tol=1e-14)

    def test_c2_bounded_memory_at_1e8_sites(self):
        # one numpy sum over the 10^8 lags would hold several 800 MB arrays
        n, alpha = 10**8, 0.9999
        tracemalloc.start()
        try:
            mass = family_mass("c2", n, alpha, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        lagged = alpha * (n * (1.0 - alpha) - 1.0 + alpha**n) / (1.0 - alpha) ** 2
        assert math.isclose(mass, 0.5 * (n + 2.0 * lagged), rel_tol=1e-12)


class TestQfi:
    def test_plain(self, capsys):
        assert run(["qfi", "--state", "ghz", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"state": "ghz", "n": 3, "f_rho": 9.0}

    def test_plain_zero_sites_refused(self, capsys):
        # plain qfi meets the noise gate's size check, as bound does
        for n in (0, 10**19):
            assert run(["qfi", "--n", str(n)]) == 1
            assert capsys.readouterr().err == f"error: n must be between 1 and {cli.N_MAX}\n"

    @pytest.mark.parametrize("state", ["ghz", "product-plus"])
    def test_past_the_dense_sizes(self, state, capsys):
        # no dense state is built: GHZ answers in closed form, product-plus
        # leaves f_rho_bar empty as bound does
        args = ["--state", state, "--n", "11", "--family", "c1", "--alpha", "0.5"]
        assert run(["qfi", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert run(["bound", *args]) == 0
        assert payload["f_rho_bar"] == json.loads(capsys.readouterr().out)["f_rho_bar"]
        assert (payload["f_rho_bar"] is None) == (state == "product-plus")
        assert run(["qfi", "--state", state, "--n", str(10**18)]) == 0
        assert json.loads(capsys.readouterr().out)["f_rho"] == cli.PROBES[state][1](10**18)

    def test_ghz_million_sites_matches_bound(self, capsys):
        args = ["--n", str(10**6), "--family", "c2", "--alpha", "0.999", "--two-beta2", "1e-9"]
        assert run(["qfi", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert run(["bound", *args]) == 0
        row = json.loads(capsys.readouterr().out)
        assert payload["f_rho_bar"] == row["f_rho_bar"] and 0.0 < row["f_rho_bar"] < 1e12

    @pytest.mark.parametrize("state", ["ghz", "product-plus"])
    @pytest.mark.parametrize("family", ["c1", "c2"])
    def test_zero_noise_is_noiseless(self, state, family, capsys):
        # as in `bound`: zero noise is the noiseless point of every family
        args = ["--state", state, "--n", "3", "--family", family, "--alpha", "0.4",
                "--two-beta2", "0"]
        assert run(["qfi", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_rho_bar"] == payload["f_rho"] == cli.PROBES[state][1](3)
        assert run(["dephase", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        probe = cli.PROBES[state][0](3).entries
        assert payload["real"] == probe.real.tolist()
        assert not np.any(payload["imag"])

    def test_with_family(self, capsys):
        assert run(["qfi", "--n", "2", "--family", "c1", "--alpha", "0",
                    "--two-beta2", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isclose(payload["f_rho_bar"], 1.4715177646857693, rel_tol=1e-9)

    def test_too_large(self, capsys):
        # dephase and simulate share the one dense size limit
        for command in (["dephase"], ["simulate", "--shots", "4", "--seed", "1"]):
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
            "chunks", "clamped", "excluded",
        ]
        assert payload["seed"] == 7
        assert (payload["chunks"], payload["clamped"], payload["excluded"]) == (1, 0, 0)
        assert payload["undefined_variance"] is False
        assert abs(payload["z_score"]) <= 3.0

    def test_one_value_probe_gives_full_array_bytes(self, tmp_path, monkeypatch):
        # product-plus is held as one broadcast value; a full float64 array
        # of the same value gives the same summary and per-shot bytes
        args = ["simulate", "--state", "product-plus", "--n", "3", "--family", "c2",
                "--alpha", "0.5", "--phi0", "0.2", "--shots", "500", "--seed", "17"]
        outputs = []
        for probe in ("one", "full"):
            if probe == "full":
                monkeypatch.setitem(cli.PROBES, "product-plus", (
                    lambda n: _trusted(DensityMatrix, np.full((2**n, 2**n), 1.0 / 2**n)), float))
            out, shots = tmp_path / f"{probe}.json", tmp_path / f"{probe}.csv"
            assert run(args + ["--out", str(out), "--per-shot", str(shots)]) == 0
            outputs.append((out.read_bytes(), shots.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["simulate", "--n", "2", "--family", "c1", "--alpha", "0.3",
                "--shots", "3000", "--seed", "13"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tiny_noise_keeps_its_local_information(self, tmp_path):
        # est - phi0 = delta2_c * score: at delta2_c = 5e-171 its square
        # underflowed, and the CFI-4 measurement was refused as uninformative
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "2", "--family", "identity", "--two-beta2", "1e-170",
                    "--shots", "10", "--seed", "1", "--out", str(out)]) == 0
        assert abs(read_json(out)["predicted_mse"] - 0.25) <= 1e-12

    @pytest.mark.parametrize("two_beta2", ["640", "660"])
    def test_square_past_float_range_refused(self, two_beta2, tmp_path, capsys):
        # est_best^2 passes the float range, so the MSE is inf, which the
        # JSON cannot hold: exit 1 with one error line and no output left
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "1", "--two-beta2", two_beta2, "--shots", "10",
                    "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: Out of range float values are not JSON compliant: inf\n"
        assert not out.exists()

    def test_large_constant_square_has_zero_stderr(self, tmp_path):
        # the squares (about 1e206) are one constant; a float variance of
        # them overflowed, where the exact one is 0
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "1", "--two-beta2", "400", "--shots", "10",
                    "--seed", "1", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["mse_stderr"] == 0.0
        assert math.isclose(payload["empirical_mse_best"], payload["predicted_mse"],
                            rel_tol=1e-12)

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

    def test_per_shot_csv_streams_the_joined_text(self, tmp_path, monkeypatch):
        # rows are written a chunk at a time through one file; the bytes are
        # those of the whole table joined at once, across a chunk boundary
        configs = []
        monkeypatch.setattr(cli, "simulate",
                            lambda cfg, *a: configs.append(cfg) or simulate(cfg, *a))
        shots_file = tmp_path / "shots.csv"
        shots = CHUNK_SHOTS + 7
        assert run(["simulate", "--n", "2", "--shots", str(shots), "--seed", "3",
                    "--out", str(tmp_path / "sim.json"), "--per-shot", str(shots_file)]) == 0
        res = collect_shots(configs[0], shots, 3)
        lines = ["shot,phi_1,phi_2,outcome,estimate"]
        for i in range(shots):
            lines.append(",".join([str(i)] + [_fmt(p) for p in res.phases[i]]
                                  + [str(int(res.outcomes[i])), _fmt(res.estimates_best[i])]))
        assert shots_file.read_text() == "\n".join(lines) + "\n"

    def test_per_shot_chunk_format_matches_csv_text(self, tmp_path):
        # one %-format per chunk gives _fmt's bytes, across chunk boundaries
        # and for signed zero, subnormals, huge and integer-valued floats
        phases = np.array([[-0.0, 5e-324], [1e300, 3.0], [0.1, -2.0], [-1e-300, 0.0],
                           [np.pi, -7.0], [2.5, 1e16], [-0.5, 123456789.0]])
        outcomes = np.array([0, 3, 1, 2, 0, 7, 12])
        estimates = np.array([-0.0, 4.0, 5e-324, -1e300, 0.25, 1.0 / 3.0, -6.0])
        path = tmp_path / "shots.csv"
        with open(path, "w") as out:
            write = cli._per_shot_writer(2, out)
            for lo in range(0, len(phases), 3):
                write(phases[lo : lo + 3], outcomes[lo : lo + 3], estimates[lo : lo + 3])
        header = ("shot", "phi_1", "phi_2", "outcome", "estimate")
        rows = [(i, *phases[i], int(outcomes[i]), estimates[i]) for i in range(len(phases))]
        assert path.read_text() == cli._csv_text([header, *rows])


class TestEntryPoint:
    """`python -m dephimetry` in a fresh interpreter."""

    def run_module(self, *args, threads=1):
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads))
        return subprocess.run([sys.executable, "-m", "dephimetry", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("args", [
        ["bound", "--state", "product-plus", "--n", "10", "--family", "c2", "--alpha", "0.5",
         "--two-beta2", "0.1"],
        ["simulate", "--state", "product-plus", "--n", "8", "--family", "c2", "--alpha", "0.5",
         "--shots", "4096", "--seed", "5"],
    ], ids=["bound", "simulate"])
    def test_output_does_not_follow_blas_threads(self, args):
        # unpinned, the last digits of f_rho_bar and predicted_mse moved
        runs = [self.run_module(*args, threads=threads) for threads in (1, 2)]
        assert all(done.returncode == 0 for done in runs), runs[-1].stderr
        assert runs[0].stdout == runs[1].stdout

    def test_bound_exits_zero(self):
        done = self.run_module("bound", "--n", "2")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["n"] == 2

    def test_unwritable_out_exits_one_without_traceback(self, tmp_path):
        done = self.run_module("bound", "--n", "2", "--out", str(tmp_path / "missing" / "x"))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and done.stdout == ""


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

    def test_rows_equal_grid_reports(self, tmp_path):
        # c1 and c2 coincide at alpha = 0; each row is its own grid_report
        cfg = self.write_config(
            tmp_path,
            "state = ghz, product-plus\nfamily = c1, c2\nn = 3\nalpha = 0, 0.5\n"
            "two_beta2 = 0.5\n",
        )
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        points = [(state, family, 3, alpha, 0.5) for state in ("ghz", "product-plus")
                  for family in ("c1", "c2") for alpha in (0.0, 0.5)]
        reports = (cli.grid_report(*point).to_dict().values() for point in points)
        assert rows == cli._csv_text(reports).splitlines()

    def test_late_bad_point_refused_before_any_row(self, tmp_path, monkeypatch, capsys):
        # the n = 10 row would take the dense path; the gate runs first
        calls = []
        monkeypatch.setattr(cli, "dephase", lambda *a: calls.append("dephase"))
        monkeypatch.setattr(cli, "qfi", lambda *a: calls.append("qfi"))
        cfg = self.write_config(
            tmp_path,
            f"state = product-plus\nfamily = c2\nn = 10, {10**19}\nalpha = 0.5\n"
            "two_beta2 = 0.5\n",
        )
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert f"n must be between 1 and {cli.N_MAX}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

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


# Every CLI writer on a small matrix, n <= 3 wherever a state is dense so
# that the BLAS thread count cannot move a bit.  Each digest is the sha256
# of the files the command writes under {out}, by name; an output that
# changes on purpose is re-recorded with golden_digest.
GOLDEN_SWEEP = (
    "state = ghz, product-plus\nfamily = c1, c2, identity\nn = 1, 3, 12\n"
    "alpha = 0, 0.5\ntwo_beta2 = 0, 0.5\n"
)
GOLDEN_CASES = {
    "bound-json": ["bound", "--n", "2", "--family", "c1", "--alpha", "0"],
    "bound-csv": ["bound", "--n", "3", "--family", "c2", "--alpha", "0.4", "--two-beta2",
                  "0.6", "--format", "csv"],
    "bound-ghz-closed-json": ["bound", "--n", "30", "--family", "c2", "--alpha", "0.5"],
    "bound-ghz-closed-csv": ["bound", "--n", "4097", "--family", "c2", "--alpha", "0.999",
                             "--two-beta2", "1e-7", "--format", "csv"],
    "bound-plus-empty-json": ["bound", "--state", "product-plus", "--n", "64", "--family",
                              "identity"],
    "bound-plus-empty-csv": ["bound", "--state", "product-plus", "--n", "64", "--family",
                             "c1", "--alpha", "0.3", "--format", "csv"],
    "bound-zero-noise-json": ["bound", "--n", "3", "--family", "c1", "--alpha", "0.2",
                              "--two-beta2", "0"],
    "bound-zero-noise-csv": ["bound", "--state", "product-plus", "--n", "20", "--two-beta2",
                             "0", "--format", "csv"],
    "qfi-json": ["qfi", "--state", "product-plus", "--n", "3", "--family", "c2", "--alpha",
                 "0.4"],
    "qfi-csv": ["qfi", "--state", "product-plus", "--n", "3", "--family", "c2", "--alpha",
                "0.4", "--format", "csv"],
    "qfi-plain-csv": ["qfi", "--n", "2", "--format", "csv"],
    "dephase-json": ["dephase", "--n", "2", "--family", "c2", "--alpha", "0.4", "--two-beta2",
                     "0.6", "--phi", "0.3"],
    "dephase-csv": ["dephase", "--state", "product-plus", "--n", "2", "--family", "c1",
                    "--alpha", "0.3", "--phi", "0.7", "--format", "csv"],
    "dephase-real-json": ["dephase", "--state", "product-plus", "--n", "3", "--family", "c2",
                          "--alpha", "0.4"],
    "sweep": ["sweep", "--config", "{cfg}"],
    "figure-scaling": ["figure", "scaling"],
    "figure-comparison": ["figure", "comparison"],
    "simulate-ghz": ["simulate", "--n", "2", "--family", "c2", "--alpha", "0.5", "--shots",
                     "300", "--seed", "11", "--per-shot", "{out}/shots.csv"],
    "simulate-plus": ["simulate", "--state", "product-plus", "--n", "3", "--family", "c1",
                      "--alpha", "0.3", "--phi0", "0.2", "--delta-phi", "0.1", "--shots", "200",
                      "--seed", "5", "--per-shot", "{out}/shots.csv"],
}
# qfi-csv, qfi-json and sweep hold product-plus c2 values from the orbit
# sectors of fisher.qfi(rho, gen, cov), within 7e-16 relative of 40-digit
# values (1.5393064974731467 and 1.4732360049949254 against
# 1.53930649747314736 and 1.47323600499492607); every other entry keeps
# its bytes.
GOLDEN_DIGESTS = {
    "bound-csv": "2c0cf06cbfa2c32f293aa79860b84c9b426810f1f68c53bfa8b534fedf4cc78f",
    "bound-ghz-closed-csv": "a15f7da62baa8e4ffd394e04b2584ff0f5732ce66afebdfba5119bf6cf6f9aa7",
    "bound-ghz-closed-json": "2dd03af1a30bcb4bdf18514e742820bc4f31aeed640692c2ef9725ead3c60408",
    "bound-json": "73397fb1eaf347107e22881a3924583a205092a890b861f8371b9d45bbbeef8f",
    "bound-plus-empty-csv": "8601a6a911f0956d90466a8fdd953357ef707c5bce1248b8ffa77014a6ce66cb",
    "bound-plus-empty-json": "f9e82d7bdc1b337517a7ce401bb01b7c9944ad32b6a3b06f2764d4b14065981d",
    "bound-zero-noise-csv": "da5651f20107840ef4a74206a362752de7a14ea6703aba595beec2ed0ed04ac7",
    "bound-zero-noise-json": "5fd6cde9fd4ca7c9d69e212a6298ce23035b68b55934b0aae2ed1deffe34be7b",
    "dephase-csv": "9191a0492840013430d5b119b8148606630690e92aab01b101c3fc8aa058e7cc",
    "dephase-json": "c1d21e4ac2ca45c25a8f46dd8cd7a87802097ea47e2d95bb001f92a048e95a81",
    "dephase-real-json": "56e81c585ff5d121bef54160613cddbe3b93eaab06855149f014a1bf37ae2078",
    "figure-comparison": "52c5dc9ab11fc0c046990c4b83abda0d1b999fe3d3c832e20359938875eb09ab",
    "figure-scaling": "82d4aad49bf1aebe2970d3db4396d5b635946366f43209036d2cdc641df53389",
    "qfi-csv": "9b09e729e8a9477a4f0d408bf404effec579be1377b6db2349e7f583f5cfe335",
    "qfi-json": "4559a37651aea084f48ed2bb20f468d972308f18c2931c15d9f7a167d1e88d72",
    "qfi-plain-csv": "ecd6b1489e839754e213578d7b33827d6f375c67ad2d67ae1524b63c6424f8dd",
    "simulate-ghz": "be4f1fb8e506a3b52164409c0634f498d6e35c5fe9ee15ce3c37081f4280015a",
    "simulate-plus": "64470b06d0a2f6fa6d1f538e674e3136a3b2531f044e91404cac2e215740ab4d",
    "sweep": "d4fdaca92bd2f1cf57e7878385ca57ca817a31dbeaa3d58289c9f1c14b6b943e",
}


def golden_digest(case, tmp_path):
    """Run one GOLDEN_CASES entry; the sha256 of its output files."""
    cfg, out = tmp_path / "grid.cfg", tmp_path / "out"
    cfg.write_text(GOLDEN_SWEEP)
    out.mkdir()
    args = [a.format(cfg=cfg, out=out) for a in GOLDEN_CASES[case]]
    target = out if args[0] == "figure" else out / "out.txt"
    assert run(args + ["--out", str(target)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_bytes(case, tmp_path):
    assert golden_digest(case, tmp_path) == GOLDEN_DIGESTS[case]


# sha256 of the shots.csv each simulate golden writes, recorded while the
# run still kept every shot in memory: the per-shot rows streamed from each
# chunk are the same bytes.
GOLDEN_SHOTS = {
    "simulate-ghz": "66b3dc2a5c5d7697fe85d1e00f88ffb27160c5849dbb70a7c468611066d8b866",
    "simulate-plus": "0e1e82c44de866b2258cda4f421018ad7c67ef60a9b07caa6d5fd7ab9f186991",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SHOTS))
def test_golden_per_shot_bytes(case, tmp_path):
    golden_digest(case, tmp_path)
    shots = (tmp_path / "out" / "shots.csv").read_bytes()
    assert hashlib.sha256(shots).hexdigest() == GOLDEN_SHOTS[case]
