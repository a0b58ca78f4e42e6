"""Scenario harness and command-line interface tests.

Numeric pins come from two sources: closed forms evaluated inline, and
values measured once at the default configuration and frozen here so
that regressions in the scenario pipeline surface as test failures.
"""

import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.stats

import dense_oracles as oracles
import toricsim
from toricsim import cli
from toricsim import harness as hn
from toricsim import lattice as lt
from toricsim import lindblad as lb
from toricsim import sequences as sq
from toricsim import spectra as sp
from toricsim.pauli import PauliString, PauliSum

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CHI_GRID = (-0.4, -0.2, 0.0, 0.2, 0.4)


def _density(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """One run of the seven scenarios at their defaults, through ``cli.main``
    as the benchmark calls them: the config fields the scenarios read, and
    the code object of every Python call made."""
    read, called = set(), set()

    def unrecorded(call):
        before = set(read)
        out = call()
        read.intersection_update(before)
        return out

    class Recording(hn.ScenarioConfig):
        def __getattribute__(self, name):
            if name in hn.FIELD_SPEC:
                read.add(name)
            return super().__getattribute__(name)

        # hashing reads every field, and validation every field it
        # checks; neither is a scenario reading it
        def canonical(self):
            return unrecorded(super().canonical)

        def validate(self):
            return unrecorded(super().validate)

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # a process-wide cache that an earlier test filled would hide the
    # calls that fill it
    for info in pkgutil.iter_modules(toricsim.__path__):
        module = importlib.import_module(f"toricsim.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    outdir = str(tmp_path_factory.mktemp("defaults"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hn, "ScenarioConfig", Recording)
        sys.setprofile(profile)
        try:
            codes = [cli.main([command, "--outdir", outdir])
                     for command in cli.COMMAND_KINDS]
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(cli.COMMAND_KINDS)
    return read, called


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


# config fields that no scenario reads and the benchmark passes
# (perfbench/workloads.py); each goes with the benchmark change that stops
# passing it (ROADMAP item 2)
UNREAD_FIELDS = {"chi_pairs"}


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

    def test_cool_with_noise_needs_a_ratio(self):
        cfg = hn.ScenarioConfig(kind="cool-with-noise", ratio_grid=())
        with pytest.raises(hn.ConfigError, match="ratio_grid must not be empty"):
            cfg.require_valid()

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

    def test_every_field_is_read_by_a_scenario(self, default_runs,
                                               benchmark_workloads):
        # a field that no scenario reads is a flag and an INI key that
        # change nothing but the config hash; one the benchmark still
        # passes stays until the benchmark stops passing it
        read, _ = default_runs
        passed = {name for calls in benchmark_workloads.values()
                  for call in calls for name, _ in call.fields}
        assert set(hn.FIELD_SPEC) - read == UNREAD_FIELDS
        assert UNREAD_FIELDS <= passed

    def test_ini_overrides_win(self):
        base = ("[scenario]\nkind = pump\nlattice_l = 2\n"
                "[pump]\ntheta = 0.4\ngamma20 = 40.0\n")
        cfg = hn.ScenarioConfig.from_ini(base, theta=0.5, lattice_l=3)
        assert cfg == hn.ScenarioConfig(kind="pump", theta=0.5, lattice_l=3,
                                        gamma20=40.0)

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
# public surface
# ---------------------------------------------------------------------------

# Public names under src/ that no scenario calls at its defaults, by the
# reason each stays; the benchmark's traced names stay too.
UNCALLED = {
    "entry points: an INI file and `toricsim describe`": (
        "harness.ScenarioConfig.from_ini", "harness.ScenarioConfig.from_file",
        "harness.describe_defaults"),
    "called by the traced harness.excitation_density": (
        "pauli.PauliString.expectation", "lattice.stabilizers"),
    "called by the traced StabilizerFrame.operator, the Pauli-level frame "
    "that the bath's label chains are checked against": (
        "lindblad.StabilizerFrame.strings", "lindblad.FrameStrings.amplitudes"),
    "called by acceptance criteria 01, 04, 08, 09, 13 and 14": (
        "pauli.commutator", "pauli.PauliString.commutes_with",
        "pauli.PauliSum.zero", "pauli.PauliSum.from_labels",
        "pauli.PauliString.apply", "pauli.PauliSum.apply",
        "lindblad.LindbladModel.pair_rate_ratio",
        "sequences.plaquette_generators", "sequences.cycled"),
}


def public_code() -> dict[str, object]:
    """The code object of every public module-level function, and of every
    public method and property of a public class, under src/, by its dotted
    name below ``toricsim``.  Dunder methods are out of scope."""
    out = {}
    for info in pkgutil.iter_modules(toricsim.__path__):
        module = importlib.import_module(f"toricsim.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
            for attr, member in members:
                # a property's getter, a cached property's function, the
                # function of a class or static method
                fn = (getattr(member, "fget", None) or getattr(member, "func", None)
                      or getattr(member, "__func__", member))
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out[".".join(filter(None, (info.name, name, attr)))] = fn.__code__
    return out


def test_every_public_function_is_called_by_a_scenario(default_runs,
                                                      traced_targets):
    # code that no scenario calls reproduces nothing; an allowlisted name
    # that is now called, or gone, is a stale entry
    _, called = default_runs
    uncalled = {name for name, code in public_code().items()
                if code not in called}
    allowed = {name for names in UNCALLED.values() for name in names}
    traced = {f"{module}.{path}" for module, path in traced_targets}
    assert uncalled - allowed - traced == set()
    assert allowed - uncalled == set()


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
    def test_sequence_order_scan(self, tmp_path, monkeypatch):
        cfg = hn.ScenarioConfig(kind="sequence-order-scan",
                                outdir=str(tmp_path))
        calls = []
        extract = sq.effective_hamiltonian
        monkeypatch.setattr(sq, "effective_hamiltonian",
                            lambda *a, **k: calls.append(1) or extract(*a, **k))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        # one matrix log per sequence, single and echoed, and angle
        assert len(calls) == 2 * len(cfg.phi_grid)
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

    def test_spectrum_quasi_degeneracy_needs_a_window_point(self, tmp_path):
        # no grid point at |chi| <= 0.2 is no evidence of the manifold
        record = hn.run(hn.ScenarioConfig(kind="spectrum", chi_grid=(0.5,),
                                          outdir=str(tmp_path)))
        check = {a.name: a for a in record.assertions}[
            "fourfold-quasi-degeneracy"]
        assert not check.passed and "(0 points)" in check.detail

    @pytest.mark.parametrize("kind", ["spectrum", "fidelity-scan"])
    def test_failed_chi_point_is_recorded(self, tmp_path, monkeypatch,
                                          csv_columns, kind):
        # both scenarios run one chi scan: a point whose solve fails is
        # left out of every file and fails solver-converged
        solve = sp.lowest_eigenpairs

        def fail_at_chi(h, **kwargs):
            if any(coeff == 0.2 for coeff, _ in h.terms):
                raise sp.ConvergenceError("forced")
            return solve(h, **kwargs)

        monkeypatch.setattr(sp, "lowest_eigenpairs", fail_at_chi)
        record = hn.run(hn.ScenarioConfig(kind=kind, chi_grid=(0.0, 0.2),
                                          outdir=str(tmp_path)))
        check = {a.name: a for a in record.assertions}["solver-converged"]
        assert not check.passed and check.detail == "failed chi points: [0.2]"
        csv = "spectrum.csv" if kind == "spectrum" else "fidelity.csv"
        chis = csv_columns(tmp_path / csv)["chi"]
        assert chis and set(chis) == {0.0}
        assert [p["chi"] for p in record.solver["points"]] == [0.0]

    def test_fidelity_scan(self, tmp_path, csv_columns):
        cfg = hn.ScenarioConfig(kind="fidelity-scan", chi_grid=(0.0, 0.3),
                                outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        fidelities = csv_columns(tmp_path / "fidelity.csv")[
            "subspace_fidelity"]
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
        sizes = {"engine": "label-chains", "orbit_states": 32,
                 "char_states": 8}
        chain = {**sizes, "orbit_null_dim": 1, "char_null_dim": 1,
                 "null_dim": 1}
        record = hn.run(hn.ScenarioConfig(kind="thermalize",
                                          outdir=str(tmp_path)))
        assert record.ok, record.summary_lines()
        assert record.solver == {
            "stationary": {**chain, "kronecker_sum": True},
            "evolve": {**sizes, "kronecker_sum": True,
                       "propagator_evaluations": 1}}
        records = [record]
        cfg = hn.ScenarioConfig(kind="cool-with-noise", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        assert record.solver == {
            "points": [{"gamma_e": cfg.lambda_star / r, **chain,
                        "kronecker_sum": False} for r in cfg.ratio_grid]}
        records.append(record)
        for record in records:
            stored = json.loads(
                (tmp_path / f"{record.scenario}-record.json").read_text())
            # each block names its engine once, under one key
            solver = stored["solver"]
            assert solver == record.solver
            for block in solver.get("points", solver.values()):
                assert [k for k, v in block.items()
                        if v == "label-chains"] == ["engine"]
        # L = 2 is solved by sector: 32 of 8 states in 14 orbits at chi = 0,
        # 4 of 64 in 3 orbits at chi != 0, every solved block by dense eigh
        # and none split by momentum
        at_zero = {"sectors": 32, "sector_dim": 8, "orbits": 14,
                   "dense_blocks": 8, "lanczos_blocks": 0, "probed_blocks": 0,
                   "momentum_blocks": 0, "max_block_dim": 8}
        at_chi = {"sectors": 4, "sector_dim": 64, "orbits": 3,
                  "dense_blocks": 3, "lanczos_blocks": 0, "probed_blocks": 0,
                  "momentum_blocks": 0, "max_block_dim": 64}
        for kind, record_name in (("spectrum", "spectrum-record.json"),
                                  ("fidelity-scan",
                                   "fidelity-scan-record.json")):
            cfg = hn.ScenarioConfig(kind=kind, chi_grid=(0.0, 0.25),
                                    outdir=str(tmp_path))
            assert hn.run(cfg).ok
            stored = json.loads((tmp_path / record_name).read_text())
            # one sector structure per term-string set: chi = 0, chi != 0
            assert stored["solver"] == {"points": [
                {"chi": 0.0, **at_zero}, {"chi": 0.25, **at_chi}],
                "structures": 2}
        # at cap 16 the 64-state blocks are split by momentum, and their
        # blocks go to Lanczos
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
        assert at_chi["momentum_blocks"] >= at_chi["lanczos_blocks"]
        assert at_zero["momentum_blocks"] == 0 and at_chi["max_block_dim"] < 64
        stored = json.loads((tmp_path / record_name).read_text())
        assert stored["solver"] == record.solver
        # the CSVs hold the columns: no record repeats them
        stored = [json.loads(path.read_text())
                  for path in tmp_path.glob("*-record.json")]
        assert len(stored) == 4 and not any("metrics" in r for r in stored)

    def test_thermalize(self, tmp_path, monkeypatch, csv_columns):
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
        # one bath temperature, the detailed-balance one, and no engine
        # label: the record's solver block names the engine
        assert set(report) == {"null_dim", "residual", "loop_expectations",
                               "detailed_balance_temperature",
                               "trace_distance_to_detailed_balance"}
        assert report["null_dim"] == 1
        # round-off-level solver values print at SOLVER_DECIMALS, so the
        # BLAS build cannot change them
        rounded = [report["residual"],
                   report["trace_distance_to_detailed_balance"],
                   *report["loop_expectations"].values()]
        assert len(rounded) == 2 + 4      # 4 Wilson loops
        assert all(v == hn._solver_value(v) for v in rounded)
        distances = csv_columns(tmp_path / "thermalize.csv")[
            "trace_distance_to_stationary"]
        assert all(a >= b for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 1e-6          # measured 2.7e-9 at t = 10
        # record file reloads and carries no wall time
        stored = json.loads((tmp_path / "thermalize-record.json").read_text())
        assert "wall_time_s" not in stored
        assert stored["config_hash"] == cfg.config_hash()
        assert set(stored["outputs"]) == {"thermalize.csv", "thermalize.json"}

    def test_dissipation_makes_no_frame_transport(self, tmp_path,
                                                  monkeypatch):
        # the label chains are built from the link incidence and the
        # energies read off the syndrome bits: the bath scenarios build no
        # Hamiltonian, no Pauli string or sum and use no stabilizer frame,
        # one build of the chains serves each scenario, and the cooling
        # sweep reweights it
        hamiltonians, paulis, frames, builds = [], [], [], []

        def counted(calls, fn):
            return lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)

        monkeypatch.setattr(sp.SparseHamiltonian, "__post_init__", counted(
            hamiltonians, sp.SparseHamiltonian.__post_init__))
        for cls in (PauliString, PauliSum):
            monkeypatch.setattr(cls, "__init__", counted(paulis, cls.__init__))
        for name in ("__init__", "strings", "operator"):
            monkeypatch.setattr(lb.StabilizerFrame, name, counted(
                frames, getattr(lb.StabilizerFrame, name)))
        monkeypatch.setattr(lb._LabelChains, "build",
                            counted(builds, lb._LabelChains.build))
        for kind in ("thermalize", "cool-with-noise"):
            record = hn.run(hn.ScenarioConfig(kind=kind,
                                              outdir=str(tmp_path)))
            assert record.ok, record.summary_lines()
        assert (len(hamiltonians), len(paulis), len(frames),
                len(builds)) == (0, 0, 0, 2)
        sweep = hn.cool_with_noise(hn.ScenarioConfig(kind="cool-with-noise"))
        assert len(sweep.points) == 4
        assert (len(hamiltonians), len(paulis), len(frames),
                len(builds)) == (0, 0, 0, 3)

    def test_dissipation_builds_no_dense_state(self, tmp_path, monkeypatch):
        # the scenarios read populations only: the stationary solve and
        # the evolution share the label chains, and no chain is larger
        # than the 32 orbits
        solved, propagated = [], []
        recurrent, propagate = lb._recurrent_distributions, lb._propagate_chain
        monkeypatch.setattr(lb, "_recurrent_distributions",
                            lambda m: solved.append(m) or recurrent(m))
        monkeypatch.setattr(lb, "_propagate_chain",
                            lambda m, *a: propagated.append(m)
                            or propagate(m, *a))
        for kind in ("thermalize", "cool-with-noise"):
            record = hn.run(hn.ScenarioConfig(kind=kind,
                                              outdir=str(tmp_path)))
            assert record.ok, record.summary_lines()
        # thermalize: M_e and M_m of one model, each solved and then
        # propagated on its own; cool-with-noise: both chains of each of
        # 4 points
        assert len(solved) == 2 + 2 * 4 and len(propagated) == 2
        assert propagated[0] is solved[0] and propagated[1] is solved[1]
        assert [m.shape for m in solved] == [(32, 32), (8, 8)] * 5
        assert len({id(m) for m in solved}) == 2 + 2 * 4

    def test_cool_with_noise_sweep(self, tmp_path, csv_columns):
        cfg = hn.ScenarioConfig(kind="cool-with-noise", outdir=str(tmp_path))
        record = hn.run(cfg)
        assert record.ok, record.summary_lines()
        temps = csv_columns(tmp_path / "cool-with-noise.csv")[
            "fitted_temperature"]
        assert all(a > b for a, b in zip(temps, temps[1:]))
        report = json.loads((tmp_path / "cool-with-noise.json").read_text())
        assert report["rank_correlation"] == 1.0
        assert report["fit_constant"] == hn._solver_value(
            report["fit_constant"])
        # measured form-fit residual 0.083: reported, not asserted small
        assert 0.0 < report["fit_residual"] < 0.5

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

        def capture(kind, rows):
            text = emit(kind, rows)
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
        # The same holds for the sweep fit that cool-with-noise.json prints.
        margin = 5e-13
        emitted, sweeps = {}, []
        emit, sweep = hn.emit_figure_data, hn.cool_with_noise

        def capture(kind, rows):
            emitted[kind] = rows
            return emit(kind, rows)

        monkeypatch.setattr(hn, "emit_figure_data", capture)
        monkeypatch.setattr(hn, "cool_with_noise",
                            lambda cfg: sweeps.append(sweep(cfg)) or sweeps[-1])
        for kind in ("thermalize", "cool-with-noise"):
            assert hn.run(hn.ScenarioConfig(kind=kind,
                                            outdir=str(tmp_path))).ok
        unit = 10.0 ** -hn.SOLVER_DECIMALS

        def gap(value):
            scaled = abs(value) / unit
            return abs(scaled - math.floor(scaled) - 0.5) * unit

        for kind, rows in emitted.items():
            columns = hn._FIGURE_SCHEMAS[kind][0]
            solver = hn._SOLVER_COLUMNS[kind]
            assert set(solver) < set(columns)
            for row in rows:
                for column, value in zip(columns, row):
                    if column in solver:
                        # nearest measured: 9.8e-13, the t = 2 entropy
                        assert gap(value) >= margin, (kind, column, value)
        (fit,) = sweeps
        # measured: 3.3e-11 and 1.45e-11
        assert gap(fit.fit_constant) >= margin and gap(fit.fit_residual) >= margin
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

    @pytest.mark.parametrize("grid", ["0.1", "0.5, 0.8"])
    def test_cool_fails_a_grid_that_cannot_show_cooling(self, tmp_path, capsys,
                                                         grid):
        # one ratio orders nothing and no ratio above 1 fits nothing: both
        # checks run on every grid and fail, rather than being skipped
        code = cli.main(["cool", "--ratio-grid", grid, "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1 and "(3 assertions" in out
        assert "[FAIL] scaling-form" in out
        assert ("[FAIL] monotone-cooling" in out) == (grid == "0.1")

    def test_every_subcommand_parses_the_config_flags(self):
        # one parser per process serves every call, so no value may leak
        # from one parse into the next
        parser = cli.build_parser()
        assert cli.build_parser() is parser
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
        code = cli.main(["cool", "--ratio-grid", "", "--outdir", str(tmp_path)])
        assert code == 2
        assert "ratio_grid" in capsys.readouterr().err
        # the chi term sits on the pulse sequence's pairs only
        code = cli.main(["spectrum", "--chi-pairs", "all",
                         "--outdir", str(tmp_path)])
        assert code == 2
        assert "chi_pairs must be sequence" in capsys.readouterr().err

    def test_every_benchmark_call_parses_and_validates(self, tmp_path,
                                                       benchmark_workloads):
        # a flag or config field that the benchmark passes cannot go
        # without this failing first
        parser = cli.build_parser()
        for calls in benchmark_workloads.values():
            for call in calls:
                args = parser.parse_args(call.argv(7, str(tmp_path)))
                assert cli.COMMAND_KINDS[args.command] == call.kind
                hn.ScenarioConfig(
                    **call.config_fields(7, str(tmp_path))).require_valid()

    def test_deleted_flags_exit_two(self):
        # the explicit angle triple, the single-EPG point and the pump's
        # Rabi rate are gone
        for argv in (["sequence-scan", "--alpha", "0.1"],
                     ["cool", "--epg", "0.01"],
                     ["pump", "--rabi-rate", "100"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
