"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent


def _write_csv(path: Path, schema: str, columns: list[str],
               rows: list[list[str]]) -> None:
    lines = [f"# toricsim-csv v2 schema={schema}", ",".join(columns)]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _spectrum_rows(levels: dict[float, np.ndarray], h_z: float,
                   bound: float) -> list[list[str]]:
    return [["%.12e" % chi, "%.12e" % h_z, str(i), f"{e:.10f}", "%.12e" % bound]
            for chi, values in levels.items() for i, e in enumerate(values)]


def test_vertex_blocks_reproduce_dense_spectrum_at_l2():
    blocks, block_error = reference.vertex_block_levels(2, h_z=0.05, k=6)
    dense, dense_error = reference.dense_levels(2, chi=0.0, h_z=0.05)
    assert np.abs(blocks - dense[:6]).max() <= block_error + dense_error


def test_vertex_blocks_refuse_uncertified_levels():
    # at h_z = 2 the bound for 4-defect blocks (-16) lies below the 6th
    # level found in the other blocks (-12.4), so nothing is certified
    with pytest.raises(ValueError, match="do not certify"):
        reference.vertex_block_levels(2, h_z=2.0, k=6)


def test_half_unit_of_printed_cells():
    assert checks.half_unit("-18.0115616292") == pytest.approx(5e-11)
    assert checks.half_unit("3.462000000000e-02") == pytest.approx(5e-15)
    assert checks.half_unit("2") == pytest.approx(0.5)


@pytest.fixture(scope="module")
def figures_reference():
    return checks.REFERENCES["figures-l2"]()


def test_energy_match_accepts_exact_and_rejects_shift(tmp_path,
                                                      figures_reference):
    levels = {chi: values[:figures_reference["k"]]
              for chi, (values, _) in figures_reference["levels"].items()}
    columns = ["chi", "h_z", "index", "energy", "residual_bound"]
    rows = _spectrum_rows(levels, 0.05, 6.6e-13)
    _write_csv(tmp_path / "spectrum.csv", "spectrum", columns, rows)
    assert "66 energies" in checks._figures_spectrum(tmp_path,
                                                     figures_reference)
    rows[7][3] = f"{float(rows[7][3]) + 1e-6:.10f}"
    _write_csv(tmp_path / "spectrum.csv", "spectrum", columns, rows)
    with pytest.raises(checks.CheckFailed, match="level 1"):
        checks._figures_spectrum(tmp_path, figures_reference)


def test_energy_match_at_l3_tolerates_only_the_residual_bound():
    levels = np.array([-18.0115616292, -18.0112763321])
    rows = [{"index": str(i), "energy": f"{e:.10f}",
             "residual_bound": "1.000000000000e-08"}
            for i, e in enumerate(levels)]
    checks.match_levels(rows, levels + 9e-9, 0.0, "inside")
    with pytest.raises(checks.CheckFailed):
        checks.match_levels(rows, levels + 1e-6, 0.0, "shifted")


def _cool_rows(densities, temperatures):
    return [["%.12e" % r, "%.12e" % 1.0, "%.12e" % (1.0 / r),
             "%.12e" % (1.0 / r), "%.12e" % d, "%.12e" % t]
            for r, d, t in zip((10.0, 30.0, 100.0, 300.0), densities,
                               temperatures)]


COOL_COLUMNS = ["ratio", "gamma_c", "gamma_e", "epg", "excitation_density",
                "fitted_temperature"]


def test_temperature_inversion_accepts_exact_and_rejects_mismatch(tmp_path):
    densities = [3.462e-02, 1.3e-02, 4.1e-03, 1.247e-03]
    temps = [2.0 / math.log((1 - d) / d) for d in densities]
    _write_csv(tmp_path / "cool-with-noise.csv", "cool-with-noise",
               COOL_COLUMNS, _cool_rows(densities, temps))
    checks._cool_inversion(tmp_path, {})
    checks._cool_monotone(tmp_path, {})
    temps[2] *= 1 + 1e-8
    _write_csv(tmp_path / "cool-with-noise.csv", "cool-with-noise",
               COOL_COLUMNS, _cool_rows(densities, temps))
    with pytest.raises(checks.CheckFailed, match="ratio 1.0"):
        checks._cool_inversion(tmp_path, {})


def test_density_must_fall_with_ratio(tmp_path):
    densities = [3.462e-02, 1.3e-02, 1.3e-02, 1.247e-03]
    temps = [2.0 / math.log((1 - d) / d) for d in densities]
    _write_csv(tmp_path / "cool-with-noise.csv", "cool-with-noise",
               COOL_COLUMNS, _cool_rows(densities, temps))
    with pytest.raises(checks.CheckFailed, match="fall strictly"):
        checks._cool_monotone(tmp_path, {})


def test_fidelity_above_rms_sector_weight_fails():
    row = {"chi": "0.2", "subspace_fidelity": "0.9900000000",
           "sector_0": "0.9800000000", "sector_1": "0.9800000000",
           "sector_2": "0.9800000000", "sector_3": "0.9800000000"}
    with pytest.raises(checks.CheckFailed):
        checks.fidelity_bounds([row])
    row["subspace_fidelity"] = "0.9800000000"
    checks.fidelity_bounds([row])


def test_layer_metrics_self_time_and_nesting():
    # main [0, 10] encloses run [1, 9], which encloses two matvecs
    trace = [["cli.main", 0.0, 10.0, -1, None],
             ["harness.run", 1.0, 9.0, 0, None],
             ["spectra.lowest_eigenpairs", 2.0, 8.0, 1, 4096],
             ["spectra.SparseHamiltonian.matvec", 3.0, 4.0, 2, None],
             ["spectra.SparseHamiltonian.matvec", 5.0, 7.0, 2, None]]
    m = spans.layer_metrics(trace, output_bytes=123)
    assert m["cli.main.s"] == 10.0 and m["cli.main.self_s"] == 2.0
    assert m["harness.run.self_s"] == 2.0
    assert m["spectra.lowest_eigenpairs.self_s"] == 3.0
    assert m["spectra.SparseHamiltonian.matvec.s"] == 3.0
    assert m["spectra.SparseHamiltonian.matvec.calls"] == 2
    assert m["spectra.lowest_eigenpairs.max_dim"] == 4096
    assert m["harness.output_bytes"] == 123
    assert m["lindblad.evolve.calls"] == 0


def test_benchmark_json_names_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(spans.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(checks.CHECKS)
