"""Scenario harness and command-line interface tests.

Numeric pins come from two sources: closed forms evaluated inline, and
values measured once at the default configuration and frozen here so
that regressions in the scenario pipeline surface as test failures.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.stats

import dense_oracles as oracles
from toricsim import cli
from toricsim import harness as hn
from toricsim import lattice as lt
from toricsim import lindblad as lb
from toricsim import spectra as sp
from toricsim.pauli import PauliString

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CHI_GRID = (-0.4, -0.2, 0.0, 0.2, 0.4)


def _density(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


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

    def test_field_spec_lists_every_field_in_order(self):
        # a field removed from the config cannot linger as an INI key or
        # as a CLI flag
        assert list(hn.FIELD_SPEC) == [
            f.name for f in dataclasses.fields(hn.ScenarioConfig)]

    def test_every_field_is_read_by_a_scenario(self, tmp_path):
        # a field that no scenario reads is a flag and an INI key that
        # change nothing but the config hash
        read = set()

        class Recording(hn.ScenarioConfig):
            def __getattribute__(self, name):
                if name in hn.FIELD_SPEC:
                    read.add(name)
                return super().__getattribute__(name)

            def canonical(self):
                # hashing reads every field
                before = set(read)
                out = super().canonical()
                read.intersection_update(before)
                return out

        for kind in hn.KINDS:
            assert hn.run(Recording(kind=kind, outdir=str(tmp_path))).ok
        assert set(hn.FIELD_SPEC) - read == set()

    def test_ini_overrides_win(self):
        base = ("[scenario]\nkind = pump\nlattice_l = 2\n"
                "[pump]\ntheta = 0.4\nrabi_rate = 1.25e4\n")
        cfg = hn.ScenarioConfig.from_ini(base, theta=0.5, lattice_l=3)
        assert cfg == hn.ScenarioConfig(kind="pump", theta=0.5, lattice_l=3,
                                        rabi_rate=1.25e4)

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
        b = hn.ScenarioConfig.from_ini("[scenario]\nkind = pump\n"
                                       "[pump]\ntheta = 0.4\n")
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
        assert lines[0].startswith("# toricsim-csv v3 schema=eliminate")
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
        # an empty file has no header, so it differs from every schema
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(hn.SchemaMismatchError, match="schema None"):
            hn.emit_figure_data(
                "eliminate", [(0.02, 0.6, 0.001, 1e-3)], empty)
        assert empty.read_text() == ""


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
        basis = oracles.reference_states(lat)
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

    def test_rank_correlation_is_spearmanr(self):
        rng = np.random.default_rng(5)
        cases = [(rng.normal(size=n), rng.normal(size=n))
                 for n in (2, 3, 4, 7, 20)]
        # ties within either input, and inputs tied in the same places
        cases += [(rng.integers(0, 3, n).astype(float),
                   rng.integers(0, 4, n).astype(float)) for n in (5, 9, 30)]
        cases += [(np.array([1.0, 2.0, 2.0, 3.0]),
                   np.array([4.0, 1.0, 1.0, 0.5])),
                  (np.array([0.3, 0.1, 0.3, 0.2, 0.1]),
                   np.array([2.0, 2.0, 5.0, 1.0, 0.0]))]
        for x, y in cases:
            assert hn.rank_correlation(x, y) == scipy.stats.spearmanr(
                x, y).statistic
        assert hn.rank_correlation(np.array([1.0, 2.0, 3.0]),
                                   np.array([5.0, 6.0, 9.0])) == 1.0


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
        assert csv_lines.startswith("# toricsim-csv v3 "
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

    def test_l2_spectral_scenarios_never_build_the_dense_h(self, tmp_path,
                                                           monkeypatch):
        # the L = 2 scenarios run the sector solver that L = 3 runs
        def refuse(h):
            raise AssertionError("dense H built")

        monkeypatch.setattr(sp.SparseHamiltonian, "to_dense", refuse)
        for kind in ("spectrum", "fidelity-scan"):
            record = hn.run(hn.ScenarioConfig(kind=kind,
                                              outdir=str(tmp_path)))
            assert record.ok, record.summary_lines()

    def test_solver_block_in_records(self, tmp_path, monkeypatch):
        # the dissipative scenarios run on two label chains, 32 orbits and
        # 8 characters, each with one recurrent class; the 11 samples are
        # one unit apart, so one pair of propagators serves them.  The
        # cooling points add depolarizing Y, which moves both labels
        sizes = {"orbit_states": 32, "char_states": 8}
        chain = {"engine": "label-chains", **sizes, "orbit_null_dim": 1,
                 "char_null_dim": 1, "null_dim": 1}
        record = hn.run(hn.ScenarioConfig(kind="thermalize",
                                          outdir=str(tmp_path)))
        assert record.ok, record.summary_lines()
        assert record.solver == {
            "stationary": {**chain, "kronecker_sum": True},
            "evolve": {"path": "label-chains", **sizes, "kronecker_sum": True,
                       "propagator_evaluations": 1},
            "observables": "label-populations"}
        stored = json.loads((tmp_path / "thermalize-record.json").read_text())
        assert stored["solver"] == record.solver
        record = hn.run(hn.ScenarioConfig(kind="cool-with-noise",
                                          outdir=str(tmp_path)))
        assert record.ok, record.summary_lines()
        assert record.solver == {
            "points": [{"gamma_e": g, **chain, "kronecker_sum": False}
                       for g in record.metrics["gamma_e"]],
            "observables": "label-populations"}
        stored = json.loads(
            (tmp_path / "cool-with-noise-record.json").read_text())
        assert stored["solver"] == record.solver
        # L = 2 is solved by sector: 32 of 8 states in 14 orbits at chi = 0,
        # 4 of 64 in 3 orbits at chi != 0, every solved block by dense eigh
        at_zero = {"sectors": 32, "sector_dim": 8, "orbits": 14,
                   "dense_blocks": 8, "lanczos_blocks": 0, "probed_blocks": 0}
        at_chi = {"sectors": 4, "sector_dim": 64, "orbits": 3,
                  "dense_blocks": 3, "lanczos_blocks": 0, "probed_blocks": 0}
        for kind, record_name in (("spectrum", "spectrum-record.json"),
                                  ("fidelity-scan",
                                   "fidelity-scan-record.json")):
            cfg = hn.ScenarioConfig(kind=kind, chi_grid=(0.0, 0.25),
                                    outdir=str(tmp_path))
            assert hn.run(cfg).ok
            stored = json.loads((tmp_path / record_name).read_text())
            assert stored["solver"] == {"points": [
                {"chi": 0.0, **at_zero}, {"chi": 0.25, **at_chi}]}
        # at cap 16 the 64-state blocks go to Lanczos
        monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        at_zero, at_chi = record.solver["points"]
        assert (at_zero["sectors"], at_zero["sector_dim"]) == (32, 8)
        assert at_zero["orbits"] == 14
        assert 0 < at_zero["dense_blocks"] <= 14
        assert at_zero["lanczos_blocks"] == 0
        assert (at_chi["sectors"], at_chi["sector_dim"]) == (4, 64)
        assert at_chi["orbits"] == 3
        assert at_chi["dense_blocks"] == 0 and at_chi["lanczos_blocks"] >= 1
        stored = json.loads((tmp_path / record_name).read_text())
        assert stored["solver"] == record.solver

    def test_thermalize(self, tmp_path, monkeypatch):
        # the stationary state and the evolution share one build of the
        # label chains
        builds = []
        build = lb._LabelChains.build
        monkeypatch.setattr(lb._LabelChains, "build", lambda *a: builds.append(
            1) or build(*a))
        cfg = hn.ScenarioConfig(kind="thermalize", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        assert len(builds) == 1
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

    def test_dissipation_makes_no_frame_transport(self, tmp_path,
                                                  monkeypatch):
        # the label chains are index arithmetic on the jump strings: no
        # operator is carried into the frame, one frame serves each
        # scenario, and the cooling sweep reweights one build of the chains
        def transport(*args):
            raise AssertionError("operator carried into the frame")

        frames, builds = [], []
        init, build = lb.StabilizerFrame.__init__, lb._LabelChains.build
        monkeypatch.setattr(lb.StabilizerFrame, "operator", transport)
        monkeypatch.setattr(lb.StabilizerFrame, "__init__",
                            lambda f, lat: frames.append(1) or init(f, lat))
        monkeypatch.setattr(lb._LabelChains, "build",
                            lambda *a: builds.append(1) or build(*a))
        for kind in ("thermalize", "cool-with-noise"):
            record = hn.run(hn.ScenarioConfig(kind=kind,
                                              outdir=str(tmp_path)))
            assert record.ok, record.summary_lines()
        assert len(frames) == len(builds) == 2
        sweep = hn.cool_with_noise(hn.ScenarioConfig(kind="cool-with-noise"))
        assert len(sweep.points) == 4
        assert len(frames) == len(builds) == 3

    def test_dissipation_builds_no_dense_state(self, tmp_path, monkeypatch):
        # the scenarios read populations only: the stationary solve and
        # the evolution share the label chains, and no chain is larger
        # than the 32 orbits
        solved, propagated = [], []
        recurrent, propagate = lb._recurrent_distributions, lb._propagate_chain
        monkeypatch.setattr(lb, "_recurrent_distributions",
                            lambda m: solved.append(m) or recurrent(m))
        monkeypatch.setattr(lb, "_propagate_chain",
                            lambda ms, *a: propagated.append(ms)
                            or propagate(ms, *a))
        for kind in ("thermalize", "cool-with-noise"):
            record = hn.run(hn.ScenarioConfig(kind=kind,
                                              outdir=str(tmp_path)))
            assert record.ok, record.summary_lines()
        # thermalize: M_e and M_m of one model, solved and propagated
        # together; cool-with-noise: both chains of each of 4 points
        assert len(solved) == 2 + 2 * 4 and len(propagated) == 1
        assert propagated[0][0] is solved[0] and propagated[0][1] is solved[1]
        assert [m.shape for m in solved] == [(32, 32), (8, 8)] * 5
        assert len({id(m) for m in solved}) == 2 + 2 * 4

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
        # the four ground states absorb every population: density 0
        assert point.excitation_density == 0.0
        assert point.fitted_temperature == 0.0
        assert sweep.fit_constant is None

    def test_cool_with_noise_heating_endpoint(self):
        # noise 10x stronger than cooling: hotter than the pair gap
        cfg = hn.ScenarioConfig(kind="cool-with-noise", ratio_grid=(0.1,))
        sweep = hn.cool_with_noise(cfg)
        assert sweep.points[0].fitted_temperature > lb.PAIR_GAP

    def test_pump(self, tmp_path):
        cfg = hn.ScenarioConfig(kind="pump", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        report = json.loads((tmp_path / "pump.json").read_text())
        assert abs(report["populations"][0] - 0.25) < 1e-4
        expected_t = lb.PAIR_GAP / (2 * math.log(1 / math.tan(math.pi / 6)))
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

    # the dissipative scenarios ignore chi_grid: their goldens are at the
    # defaults
    @pytest.mark.parametrize("name,kind,grid_field", [
        ("spectrum-l2.csv", "spectrum", "spectrum.csv"),
        ("fidelity-l2.csv", "fidelity-scan", "fidelity.csv"),
        ("thermalize-l2.csv", "thermalize", "thermalize.csv"),
        ("cool-with-noise-l2.csv", "cool-with-noise", "cool-with-noise.csv"),
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
        # reach the last printed digit.  Perturb every solved block of the
        # real-gauge H by a seeded symmetric matrix of norm 1e-13 (above the
        # ~1e-14 round-off that differs between builds) and require every
        # emitted cell to move by less than half a unit of its last digit.
        deltas = {}

        def delta(dim):
            if dim not in deltas:
                a = np.random.default_rng(13).normal(size=(dim, dim))
                deltas[dim] = (a + a.T) * (1e-13 / np.linalg.norm(a + a.T, 2))
            return deltas[dim]

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
        solve = sp._solve_block
        monkeypatch.setattr(
            sp, "_solve_block", lambda a, *args: solve(
                scipy.sparse.csr_matrix(a.toarray() + delta(a.shape[0])),
                *args))
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
        assert set(deltas) == {8, 64}

    def test_dissipative_golden_cells_clear_their_rounding_boundary(
            self, tmp_path, monkeypatch):
        # The dissipative goldens read their observables off frame
        # populations; the dense oracle on B diag(p) Bᵀ and the population
        # formulas differ by up to ~1e-14 (round-off, as between BLAS
        # builds).  Every solver cell must sit at least `margin` from the
        # midpoint between two printed values, so no such drift flips it.
        margin = 5e-13
        emitted = {}
        emit = hn.emit_figure_data

        def capture(kind, rows, path=None):
            emitted[kind] = rows
            return emit(kind, rows, path)

        monkeypatch.setattr(hn, "emit_figure_data", capture)
        for kind in ("thermalize", "cool-with-noise"):
            assert hn.run(hn.ScenarioConfig(kind=kind,
                                            outdir=str(tmp_path))).ok
        unit = 10.0 ** -hn.SOLVER_DECIMALS
        for kind, rows in emitted.items():
            columns = hn._FIGURE_SCHEMAS[kind][0]
            solver = hn._SOLVER_COLUMNS[kind]
            assert set(solver) < set(columns)
            for row in rows:
                for column, value in zip(columns, row):
                    if column in solver:
                        scaled = abs(value) / unit
                        gap = abs(scaled - math.floor(scaled) - 0.5) * unit
                        # nearest measured: 9.8e-13, the t = 2 entropy
                        assert gap >= margin, (kind, column, value)
        assert set(emitted) == {"thermalize", "cool-with-noise"}


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


class TestCli:
    def test_command_kinds_cover_every_scenario(self):
        assert set(cli.COMMAND_KINDS.values()) == set(hn.KINDS)

    def test_import_loads_no_unused_scipy_subpackage(self):
        # every CLI call pays for the modules it imports
        unused = ("scipy.stats", "scipy.optimize", "scipy.integrate",
                  "scipy.special", "scipy.spatial")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p])}
        code = ("import sys, toricsim.cli; "
                f"print([m for m in {unused!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

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

    def test_every_subcommand_parses_the_config_flags(self):
        parser = cli.build_parser()
        fields = [name for name in hn.FIELD_SPEC if name != "kind"]
        values = {name: f"value-of-{name}" for name in fields}
        flags = [arg for name in fields
                 for arg in ("--" + name.replace("_", "-"), values[name])]
        for command in [*cli.COMMAND_KINDS, "validate"]:
            args = parser.parse_args([command, "--config", "c.ini", *flags])
            assert {name: getattr(args, name) for name in fields} == values
            assert args.config == "c.ini"
        # --config is optional on the scenarios and required on validate
        for command in cli.COMMAND_KINDS:
            args = parser.parse_args([command])
            assert args.config is None
            assert all(getattr(args, name) is None for name in fields)
        with pytest.raises(SystemExit):
            parser.parse_args(["validate"])
        # no prefix matching: --phi is no abbreviation of --phi-grid
        with pytest.raises(SystemExit):
            parser.parse_args(["sequence-scan", "--phi", "0.1"])
        # describe takes no flags
        assert vars(parser.parse_args(["describe"])) == {"command": "describe"}
        for arg in ("--seed", "--config"):
            with pytest.raises(SystemExit):
                parser.parse_args(["describe", arg, "1"])

    def test_config_errors_exit_two(self, tmp_path, capsys):
        code = cli.main(["pump", "--theta", "2.5",
                         "--outdir", str(tmp_path)])
        assert code == 2
        assert "theta" in capsys.readouterr().err
