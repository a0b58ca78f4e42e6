"""Scenario harness and command-line interface tests.

Numeric pins come from two sources: closed forms evaluated inline, and
values measured once at the default configuration and frozen here so
that regressions in the scenario pipeline surface as test failures.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from toricsim import cli
from toricsim import harness as hn
from toricsim import lattice as lt
from toricsim import spectra as sp
from toricsim.pauli import PauliString

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CHI_GRID = (-0.4, -0.2, 0.0, 0.2, 0.4)


def _density(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------


class TestNoiseModel:
    def test_epg_bounds(self):
        with pytest.raises(ValueError):
            hn.NoiseModel(epg=0.5)
        with pytest.raises(ValueError):
            hn.NoiseModel(epg=-1e-3)
        with pytest.raises(ValueError):
            hn.NoiseModel(epg=0.1, channel="amplitude-damping")

    def test_zero_epg_is_identity(self):
        rho = _density([1.0, 2.0, 0.5, -0.25])
        model = hn.NoiseModel(epg=0.0)
        assert model.apply(rho, (0, 1)) is rho

    def test_single_qubit_event_mixes_the_support(self):
        # depolarizing event on qubit 0 of |00>: the support goes to I/2
        rho = _density([1.0, 0.0, 0.0, 0.0])
        epg = 0.12
        out = hn.NoiseModel(epg=epg).apply(rho, (0,))
        mixed = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        expected = (1 - epg) * rho + epg * mixed
        np.testing.assert_allclose(out, expected, atol=1e-14)
        assert abs(np.trace(out) - 1.0) < 1e-14

    def test_two_qubit_event_mixes_fully(self):
        rng = np.random.default_rng(3)
        rho = _density(rng.normal(size=4) + 1j * rng.normal(size=4))
        epg = 0.3
        out = hn.NoiseModel(epg=epg).apply(rho, (0, 1))
        expected = (1 - epg) * rho + epg * np.eye(4) / 4
        np.testing.assert_allclose(out, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


class TestScenarioConfig:
    def test_defaults_valid_for_every_kind(self):
        for kind in hn.KINDS:
            assert hn.ScenarioConfig(kind=kind).validate() == []

    def test_unknown_kind_rejected(self):
        problems = hn.ScenarioConfig(kind="anneal").validate()
        assert len(problems) == 1 and "kind" in problems[0]

    def test_all_problems_enumerated_before_compute(self):
        cfg = hn.ScenarioConfig(kind="thermalize", p=1.2, lambda_star=-1.0,
                                t_final=0.0, n_times=1)
        with pytest.raises(hn.ConfigError) as err:
            hn.run(cfg)
        text = str(err.value)
        assert len(err.value.problems) >= 4
        for fragment in ("p must", "lambda_star", "t_final", "n_times"):
            assert fragment in text

    def test_partial_explicit_angles_rejected(self):
        cfg = hn.ScenarioConfig(kind="sequence-order-scan", alpha=0.1)
        assert any("together" in p for p in cfg.validate())

    def test_probe_separation_guards(self):
        cfg = hn.ScenarioConfig(kind="eliminate", coupling_grid=(0.2,),
                                relaxation_grid=(1.0,))
        assert any("relaxation / 10" in p for p in cfg.validate())
        slow = hn.ScenarioConfig(kind="eliminate", coupling_grid=(0.05,),
                                 relaxation_grid=(0.6, 1.0), step_time=40.0)
        assert any("pi/2" in p for p in slow.validate())

    def test_ini_round_trip_preserves_every_field(self):
        cfg = hn.ScenarioConfig(kind="pump", theta=0.4, rabi_rate=1.25e4,
                                ratio_grid=(1.5, 2.0), alpha=0.1,
                                chi_pairs="all", outdir="/tmp/somewhere")
        again = hn.ScenarioConfig.from_ini(cfg.to_ini())
        assert again == cfg

    def test_field_spec_lists_every_field_in_order(self):
        # a field removed from the config cannot linger as an INI key or
        # as a CLI flag
        assert list(hn._FIELD_SPEC) == [
            f.name for f in dataclasses.fields(hn.ScenarioConfig)]

    def test_ini_overrides_win(self):
        base = hn.ScenarioConfig(kind="pump").to_ini()
        cfg = hn.ScenarioConfig.from_ini(base, theta=0.5, lattice_l=3)
        assert cfg.theta == 0.5 and cfg.lattice_l == 3

    def test_unknown_keys_and_bad_values_enumerated(self):
        text = "[scenario]\nkind = pump\nflavor = mint\n[pump]\ntheta = warm\n"
        with pytest.raises(hn.ConfigError) as err:
            hn.ScenarioConfig.from_ini(text)
        assert any("unknown key" in p for p in err.value.problems)
        assert any("cannot parse" in p for p in err.value.problems)

    def test_kind_required(self):
        with pytest.raises(hn.ConfigError, match="kind is required"):
            hn.ScenarioConfig.from_ini("[pump]\ntheta = 0.5\n")

    def test_unparseable_ini_reported(self):
        with pytest.raises(hn.ConfigError, match="does not parse"):
            hn.ScenarioConfig.from_ini("kind = pump\n")

    def test_inline_comments_stripped(self):
        text = "[scenario]\nkind = pump  # scenario choice\n"
        assert hn.ScenarioConfig.from_ini(text).kind == "pump"

    def test_describe_defaults_parses_back(self):
        text = hn.describe_defaults()
        for kind in hn.KINDS:
            cfg = hn.ScenarioConfig.from_ini(text, kind=kind)
            assert cfg.validate() == []

    def test_config_hash_tracks_values_not_instances(self):
        a = hn.ScenarioConfig(kind="pump", theta=0.4)
        b = hn.ScenarioConfig.from_ini(a.to_ini())
        c = hn.ScenarioConfig(kind="pump", theta=0.41)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 64

    def test_outdir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.delenv(hn.OUTDIR_ENV, raising=False)
        cfg = hn.ScenarioConfig(kind="pump")
        assert cfg.resolve_outdir() == Path(".")
        monkeypatch.setenv(hn.OUTDIR_ENV, str(tmp_path / "env"))
        assert cfg.resolve_outdir() == tmp_path / "env"
        explicit = hn.ScenarioConfig(kind="pump", outdir=str(tmp_path / "x"))
        assert explicit.resolve_outdir() == tmp_path / "x"


# ---------------------------------------------------------------------------
# figure data emission
# ---------------------------------------------------------------------------


class TestEmitFigureData:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown figure kind"):
            hn.emit_figure_data("histogram", [])

    def test_schema_header_and_float_format(self):
        text = hn.emit_figure_data("eliminate", [(0.02, 0.6, 1.0 / 3.0, 1e-3)])
        lines = text.splitlines()
        assert lines[0].startswith("# toricsim-csv v2 schema=eliminate")
        assert lines[1] == "coupling,relaxation,rate,fit_residual"
        assert "3.333333333333e-01" in lines[2]

    def test_refuses_to_overwrite_a_different_schema(self, tmp_path):
        target = tmp_path / "figure.csv"
        hn.emit_figure_data("eliminate", [(0.02, 0.6, 0.001, 1e-3)], target)
        with pytest.raises(hn.SchemaMismatchError):
            hn.emit_figure_data(
                "fidelity",
                [(0.0, 0.99, 0.99, 0.99, 0.99, 0.99, 1e-3, 3.0)], target)
        rewritten = hn.emit_figure_data(
            "eliminate", [(0.03, 0.6, 0.002, 1e-3)], target)
        assert target.read_text() == rewritten


# ---------------------------------------------------------------------------
# shared diagnostics
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_entropy_of_pure_and_mixed_states(self):
        assert hn.von_neumann_entropy(_density([1.0, 0.0])) < 1e-12
        maximally_mixed = np.eye(4) / 4
        assert abs(hn.von_neumann_entropy(maximally_mixed)
                   - math.log(4)) < 1e-12

    def test_excitation_density_counts_flipped_stabilizers(self):
        lat = lt.build(2)
        from toricsim.spectra import ground_space_reference
        basis, _ = ground_space_reference(lat)
        rho = _density(basis[:, 0])
        assert hn.excitation_density(rho, lat) < 1e-12
        flip = PauliString.from_label("I" * (lat.n_links - 1) + "X").to_dense()
        rho_exc = flip @ rho @ flip
        # one X on a link flips its two vertex stabilizers out of eight
        assert abs(hn.excitation_density(rho_exc, lat) - 0.25) < 1e-12

    def test_temperature_inversion_edges(self):
        assert hn._fitted_temperature(0.0) == 0.0
        assert hn._fitted_temperature(0.5) == math.inf
        assert hn._fitted_temperature(0.7) == math.inf
        d = 1.0 / (1.0 + math.e ** 2)
        assert abs(hn._fitted_temperature(d) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# scenario runs (measured pins noted inline)
# ---------------------------------------------------------------------------


class TestScenarioRuns:
    def test_sequence_order_scan(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="sequence-order-scan",
                                outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        report = json.loads((tmp_path / "sequence-order-scan.json")
                            .read_text())
        # measured slopes at the default grid: 3.90, 3.96, 6.88
        assert abs(report["single_term_slopes"]["IXZZ"] - 4.0) < 0.3
        assert report["echoed_residual_slope"] > 5.5
        csv_lines = (tmp_path / "sequence-order-scan.csv").read_text()
        assert csv_lines.startswith("# toricsim-csv v2 "
                                    "schema=sequence-order-scan")

    def test_spectrum_scan(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="spectrum", chi_grid=(-0.2, 0.0, 0.2),
                                outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        rows = [l for l in (tmp_path / "spectrum.csv").read_text().splitlines()
                if not l.startswith(("#", "chi"))]
        assert len(rows) == 3 * cfg.n_eigenvalues
        assert max(float(r.split(",")[4]) for r in rows) < 1e-8

    def test_fidelity_scan(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="fidelity-scan", chi_grid=(0.0, 0.3),
                                outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        fidelities = record.metrics["subspace_fidelity"]
        assert fidelities[0] > 0.99          # measured 0.9994 at chi = 0
        assert all(f >= 0.8 for f in fidelities)

    def test_solver_block_in_records(self, tmp_path, monkeypatch):
        # below the dense cap L = 2 is solved whole; at cap 16 by sector
        dense = {"sectors": 1, "sector_dim": 256, "dense_blocks": 1,
                 "lanczos_blocks": 0}
        for kind, record_name in (("spectrum", "spectrum-record.json"),
                                  ("fidelity-scan",
                                   "fidelity-scan-record.json")):
            cfg = hn.ScenarioConfig(kind=kind, chi_grid=(0.0, 0.25),
                                    outdir=str(tmp_path))
            assert hn.run(cfg).ok
            stored = json.loads((tmp_path / record_name).read_text())
            assert stored["solver"] == {"points": [
                {"chi": 0.0, **dense}, {"chi": 0.25, **dense}]}
        monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        at_zero, at_chi = record.solver["points"]
        assert (at_zero["sectors"], at_zero["sector_dim"]) == (32, 8)
        assert 0 < at_zero["dense_blocks"] < 32
        assert at_zero["lanczos_blocks"] == 0
        assert (at_chi["sectors"], at_chi["sector_dim"]) == (4, 64)
        assert at_chi["dense_blocks"] == 0 and at_chi["lanczos_blocks"] >= 1
        stored = json.loads((tmp_path / record_name).read_text())
        assert stored["solver"] == record.solver

    def test_thermalize(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="thermalize", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        report = json.loads((tmp_path / "thermalize.json").read_text())
        assert report["null_dim"] == 1
        assert report["method"] == "classical-rate-matrix"
        distances = record.metrics["trace_distance_to_stationary"]
        assert all(a >= b for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 1e-6          # measured 2.7e-9 at t = 10
        # record file reloads and carries no wall time
        stored = json.loads((tmp_path / "thermalize-record.json").read_text())
        assert "wall_time_s" not in stored
        assert stored["config_hash"] == cfg.config_hash()
        assert set(stored["outputs"]) == {"thermalize.csv", "thermalize.json"}

    def test_cool_with_noise_sweep(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="cool-with-noise", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        temps = record.metrics["fitted_temperature"]
        assert all(a > b for a, b in zip(temps, temps[1:]))
        report = json.loads((tmp_path / "cool-with-noise.json").read_text())
        assert report["rank_correlation"] == 1.0
        # measured form-fit residual 0.083: reported, not asserted small
        assert 0.0 < report["fit_residual"] < 0.5

    def test_cool_with_noise_noiseless_point_is_dark(self):
        cfg = hn.ScenarioConfig(kind="cool-with-noise", ratio_grid=(),
                                epg=0.0)
        sweep = hn.cool_with_noise(cfg)
        assert len(sweep.points) == 1
        point = sweep.points[0]
        assert point.gamma_e == 0.0 and point.ratio == math.inf
        assert point.excitation_density < 1e-6
        # density ~1e-16 inverts to a tiny but nonzero temperature
        assert point.fitted_temperature < 0.15
        assert sweep.fit_constant is None

    def test_cool_with_noise_heating_endpoint(self):
        # noise 10x stronger than cooling: hotter than the pair gap
        cfg = hn.ScenarioConfig(kind="cool-with-noise", ratio_grid=(0.1,))
        sweep = hn.cool_with_noise(cfg)
        assert sweep.points[0].fitted_temperature > hn.PAIR_GAP

    def test_pump(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="pump", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        report = json.loads((tmp_path / "pump.json").read_text())
        assert abs(report["populations"][0] - 0.25) < 1e-4
        expected_t = hn.PAIR_GAP / (2 * math.log(1 / math.tan(math.pi / 6)))
        assert abs(report["effective_temperature"] - expected_t) < 1e-6

    def test_eliminate(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="eliminate", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        report = json.loads((tmp_path / "eliminate.json").read_text())
        # measured: exponent 2.011, residuals 0.0067 (inverse) / 0.81 (direct)
        assert abs(report["coupling_exponent"] - 2.0) < 0.1
        assert (report["model_residuals"]["coupling^2 / relaxation"]
                < report["model_residuals"]["coupling^2 * relaxation"])

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            out.mkdir()
            hn.run(hn.ScenarioConfig(kind="pump", outdir=str(out)))
        for name in ("pump.json", "pump-record.json"):
            assert ((out_a / name).read_bytes()
                    == (out_b / name).read_bytes())

    @pytest.mark.parametrize("name,kind,grid_field", [
        ("spectrum-l2.csv", "spectrum", "spectrum.csv"),
        ("fidelity-l2.csv", "fidelity-scan", "fidelity.csv"),
    ])
    def test_golden_files_regenerate_byte_identically(self, tmp_path, name,
                                                      kind, grid_field):
        cfg = hn.ScenarioConfig(kind=kind, chi_grid=GOLDEN_CHI_GRID,
                                outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        fresh = (tmp_path / grid_field).read_bytes()
        assert fresh == (GOLDEN / name).read_bytes()

    def test_golden_columns_are_well_conditioned(self, tmp_path,
                                                 monkeypatch):
        # Byte identity across BLAS builds holds only if round-off cannot
        # reach the last printed digit.  Perturb H by a seeded Hermitian of
        # norm 1e-13 (above the ~1e-14 round-off that differs between
        # builds) and require every emitted cell to move by less than half
        # a unit of its last digit.
        rng = np.random.default_rng(13)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        delta = a + a.conj().T
        delta *= 1e-13 / np.linalg.norm(delta, 2)
        emitted = {}
        emit = hn.emit_figure_data

        def capture(kind, rows, path=None):
            text = emit(kind, rows, path)
            emitted.setdefault(kind, []).append((rows, text))
            return text

        def run_golden_scenarios():
            for kind in ("spectrum", "fidelity-scan"):
                record = hn.run(hn.ScenarioConfig(
                    kind=kind, chi_grid=GOLDEN_CHI_GRID,
                    outdir=str(tmp_path)))
                assert record.ok, record.summary_lines()

        monkeypatch.setattr(hn, "emit_figure_data", capture)
        run_golden_scenarios()
        dense = sp.SparseHamiltonian.to_dense
        monkeypatch.setattr(sp.SparseHamiltonian, "to_dense",
                            lambda h: dense(h) + delta)
        run_golden_scenarios()
        moved = 0.0
        for kind, ((rows, text), (perturbed, _)) in emitted.items():
            for row, new, line in zip(rows, perturbed,
                                      text.splitlines()[2:]):
                for old, value, cell in zip(row, new, line.split(",")):
                    mantissa, _, exponent = cell.partition("e")
                    decimals = len(mantissa.partition(".")[2])
                    unit = 10.0 ** (int(exponent or 0) - decimals)
                    assert abs(value - old) < 0.5 * unit, (kind, cell)
                    moved = max(moved, abs(value - old))
        assert set(emitted) == {"spectrum", "fidelity"}
        assert moved > 0.0          # the perturbation reached the solver


# ---------------------------------------------------------------------------
# entropy per gate
# ---------------------------------------------------------------------------


class TestEntropyPerGate:
    def test_near_linear_scaling_in_epg(self):
        report = hn.entropy_per_gate(hn.ScenarioConfig(kind="thermalize"))
        assert report.n_gates == 40
        assert report.omega == 1.0
        # measured exponent 0.861 at the default grid
        assert 0.80 < report.exponent < 1.15
        assert all(b > a for a, b in zip(report.entropies,
                                         report.entropies[1:]))

    def test_noiseless_limit_injects_no_entropy(self):
        cfg = hn.ScenarioConfig(kind="thermalize", epg_grid=(1e-12, 1e-11))
        report = hn.entropy_per_gate(cfg)
        assert report.entropies[0] < 1e-9

    def test_validation(self):
        with pytest.raises(hn.ConfigError) as err:
            hn.entropy_per_gate(hn.ScenarioConfig(kind="thermalize",
                                                  epg_grid=(0.6,), phi=0.0))
        assert len(err.value.problems) >= 3


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


class TestCli:
    def test_command_kinds_cover_every_scenario(self):
        assert set(cli.COMMAND_KINDS.values()) == set(hn.KINDS)

    def test_describe_round_trips(self, capsys):
        assert cli.main(["describe"]) == 0
        text = capsys.readouterr().out
        cfg = hn.ScenarioConfig.from_ini(text, kind="pump")
        assert cfg.validate() == []

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.ini"
        good.write_text("[scenario]\nkind = pump\n")
        assert cli.main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nkind = pump\n[pump]\ntheta = 9\n")
        assert cli.main(["validate", "--config", str(bad)]) == 2
        assert "theta" in capsys.readouterr().err

    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        code = cli.main(["pump", "--outdir", str(tmp_path),
                         "--theta", str(math.pi / 4)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "FAIL" not in out
        report = json.loads((tmp_path / "pump.json").read_text())
        assert abs(report["populations"][0] - 0.5) < 1e-4

    def test_flags_override_config_file(self, tmp_path):
        ini = tmp_path / "scan.ini"
        ini.write_text("[scenario]\nkind = pump\n[pump]\ntheta = 0.3\n")
        code = cli.main(["pump", "--config", str(ini),
                         "--theta", "0.6", "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "pump.json").read_text())
        assert abs(report["theta"] - 0.6) < 1e-12

    def test_env_outdir_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv(hn.OUTDIR_ENV, str(tmp_path))
        assert cli.main(["pump"]) == 0
        assert (tmp_path / "pump.json").exists()

    def test_failed_scenario_assertion_exits_one(self, tmp_path, capsys):
        code = cli.main(["thermalize", "--outdir", str(tmp_path),
                         "--t-final", "0.5", "--n-times", "3"])
        assert code == 1
        assert "[FAIL] converged" in capsys.readouterr().out

    def test_config_errors_exit_two(self, tmp_path, capsys):
        code = cli.main(["pump", "--theta", "2.5",
                         "--outdir", str(tmp_path)])
        assert code == 2
        assert "theta" in capsys.readouterr().err
