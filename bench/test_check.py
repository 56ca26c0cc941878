"""Self-test of the benchmark's output checker: genuine CLI output passes,
and a doctored sweep row and a doctored `simulate` JSON are rejected.

    python3 bench/test_check.py        (or: python3 -m pytest bench/test_check.py)
"""
from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
from workloads import SimulatePlan, SimulateSpec, SweepGrid  # noqa: E402

from dephimetry.cli import main as cli_main  # noqa: E402

# Small grids that still cover every oracle: GHZ, product-plus at alpha=0,
# and a recorded product-plus reference value.
GRID = SweepGrid(("ghz", "product-plus"), ("c1", "c2"), (6,), (0.0, 0.5), (0.5,))
SPEC = SimulateSpec("product-plus", 3, "c1", 0.3, 0.5, 20_000)


def _doctor_row(text: str, index: int, key: str, factor: float) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[index][key] = repr(float(rows[index][key]) * factor)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


class CheckerSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as tmp:
            config, rows = Path(tmp, "sweep.cfg"), Path(tmp, "rows.csv")
            config.write_text(GRID.config_text())
            assert cli_main(["sweep", "--config", str(config), "--out", str(rows)]) == 0
            cls.rows = rows.read_text()

            cls.plan = SimulatePlan(SPEC, seed=7)
            out = Path(tmp, "simulate.json")
            assert cli_main(cls.plan.argv(0, out)) == 0
            cls.payload = json.loads(out.read_text())

    def check_payload(self, payload):
        return check.check_simulate(payload, SPEC, self.plan.cli_seed(0), self.plan.predicted)

    def test_genuine_sweep_passes(self):
        self.assertEqual(check.check_sweep(self.rows, GRID.points()), [])

    def test_doctored_sweep_row_is_rejected(self):
        # Last row: product-plus c2 alpha=0.5, checked against a recorded value.
        doctored = _doctor_row(self.rows, -1, "f_rho_bar", 1.0 + 1e-6)
        errors = check.check_sweep(doctored, GRID.points())
        self.assertEqual(len(errors), 1)
        self.assertIn("f_rho_bar", errors[0])

    def test_reordered_sweep_rows_are_rejected(self):
        header, *rows = self.rows.splitlines()
        rows[0], rows[1] = rows[1], rows[0]
        self.assertTrue(check.check_sweep("\n".join([header, *rows]) + "\n", GRID.points()))

    def test_genuine_simulate_passes(self):
        self.assertEqual(self.check_payload(self.payload), [])

    def test_doctored_simulate_is_rejected(self):
        doctored = dict(self.payload, predicted_mse=self.payload["predicted_mse"] * (1.0 + 1e-6))
        errors = self.check_payload(doctored)
        self.assertEqual(len(errors), 1)
        self.assertIn("predicted_mse", errors[0])

    def test_simulate_far_from_prediction_is_rejected(self):
        doctored = dict(self.payload, z_score=check.Z_BOUND * 1.5)
        self.assertIn("z_score", " ".join(self.check_payload(doctored)))


if __name__ == "__main__":
    unittest.main()
