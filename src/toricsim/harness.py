"""Scenario runner: validated configs, run records, and figure data.

A :class:`ScenarioConfig` collects every knob of the seven supported
scenarios, validates all of them against the preconditions of the
operations they feed before any compute starts, and hashes canonically so
runs are reproducible.  :func:`run` dispatches to the scenario
implementations, gathers the assertions and solver counters into a
:class:`RunRecord`, and writes the outputs atomically: CSV files under a
versioned schema header, JSON files as bare JSON.

Determinism contract: the configuration plus the seed fix every byte of
every emitted file.  Wall time is therefore kept on the returned record
(and printed by the CLI) but never written to disk; what the solvers did
(the eigensolver, or the label chains of the dissipative scenarios) goes
into the record's ``solver`` block as counters only.  Quantities a
solver computes are printed at ``SOLVER_DECIMALS``, far above the
round-off that differs between BLAS builds.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy

from . import __version__
from . import lattice as lt
from . import lindblad as lb
from . import sequences as sq
from . import spectra as sp

SCHEMA_VERSION = 3
# Fixed-point decimals of the solver columns (energies, gaps, fidelities,
# and the observables of the dissipative scenarios).  Their last digit,
# 1e-10, sits far above both the ~1e-14 round-off that differs between
# BLAS builds and the ~1e-13 shift that a Hermitian perturbation of norm
# 1e-13 causes, so it cannot flip.
SOLVER_DECIMALS = 10
OMEGA_DEFINITION = ("omega = elementary gates per unit time of the "
                    "configured pulse schedule")
KINDS = ("sequence-order-scan", "spectrum", "fidelity-scan", "thermalize",
         "cool-with-noise", "pump", "eliminate")
OUTDIR_ENV = "TORICSIM_OUTDIR"
STABILIZER_GAP = 2.0                # single-stabilizer flip cost at j = 1


class ConfigError(ValueError):
    """All validation problems of a config, enumerated before any compute."""

    def __init__(self, problems: Sequence[str]):
        self.problems = tuple(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(problems))


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

# field name -> (ini section, parser kind, help text)
FIELD_SPEC: dict[str, tuple[str, str, str]] = {
    "kind": ("scenario", "str", "one of " + " | ".join(KINDS)),
    "lattice_l": ("scenario", "int", "torus linear size (2 or 3)"),
    "seed": ("scenario", "int", "seed fixing every random draw"),
    "outdir": ("scenario", "str",
               f"output directory; empty defers to ${OUTDIR_ENV} then '.'"),
    "tau": ("sequence", "float", "single-pulse duration"),
    "phi_grid": ("sequence", "floats", "angles scanned for order fits"),
    "h_z": ("spectrum", "float", "uniform longitudinal field"),
    "chi_grid": ("spectrum", "floats", "two-body coupling grid"),
    "chi_pairs": ("spectrum", "str",
                  "link pairs carrying the chi term: sequence only"),
    "n_eigenvalues": ("spectrum", "int", "eigenpairs computed per grid point"),
    "p": ("dissipation", "float", "bath weight of pair creation, in [0, 1)"),
    "lambda_star": ("dissipation", "float",
                    "pair creation/annihilation rate scale"),
    "gamma_star": ("dissipation", "float", "pair translation rate scale"),
    "t_final": ("dissipation", "float", "master-equation horizon"),
    "n_times": ("dissipation", "int", "sample count along the evolution"),
    "omega": ("noise", "float", OMEGA_DEFINITION),
    "ratio_grid": ("noise", "floats",
                   "cooling-to-noise rate ratios swept by cool-with-noise"),
    "theta": ("pump", "float", "partial-transfer pulse angle, in [0, pi/2]"),
    "gamma20": ("pump", "float", "ancilla level-2 decay rate"),
    "coupling_grid": ("probe", "floats", "system-ancilla couplings g"),
    "relaxation_grid": ("probe", "floats", "ancilla relaxation rates"),
    "step_time": ("probe", "float",
                  "stroboscopic step; g * step_time < pi/2 required"),
}


def parse_value(kind: str, raw: str):
    """A field's value from its INI or flag text, by its ``FIELD_SPEC`` kind."""
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "floats":
        if not raw:
            return ()
        return tuple(float(v) for v in raw.split(","))
    return raw


@dataclass
class ScenarioConfig:
    """Every scenario knob, with defaults that satisfy all preconditions."""

    kind: str
    lattice_l: int = 2
    seed: int = 7
    outdir: str = ""
    tau: float = 1.0
    phi_grid: tuple[float, ...] = (0.05, 0.0707, 0.1, 0.1414, 0.2)
    h_z: float = 0.05
    chi_grid: tuple[float, ...] = tuple(round(-0.5 + 0.1 * k, 10)
                                        for k in range(11))
    # one value left; the field goes once the benchmark's spectral calls
    # stop passing --chi-pairs (ROADMAP item 2)
    chi_pairs: str = "sequence"
    n_eigenvalues: int = 6
    p: float = 0.2
    lambda_star: float = 1.0
    gamma_star: float = 0.5
    t_final: float = 10.0
    n_times: int = 11
    omega: float = 1.0
    ratio_grid: tuple[float, ...] = (10.0, 30.0, 100.0, 300.0)
    theta: float = math.pi / 6
    gamma20: float = 50.0
    coupling_grid: tuple[float, ...] = (0.02, 0.03, 0.045)
    relaxation_grid: tuple[float, ...] = (0.6, 1.0, 1.6)
    step_time: float = 1.0

    # -- validation (all problems enumerated before any compute) ---------

    def validate(self) -> list[str]:
        bad: list[str] = []
        if self.kind not in KINDS:
            bad.append(f"kind must be one of {', '.join(KINDS)}; got {self.kind!r}")
            return bad
        if self.lattice_l not in (2, 3):
            bad.append(f"lattice_l must be 2 or 3, got {self.lattice_l}")
        if self.seed < 0:
            bad.append("seed must be >= 0")
        if self.tau <= 0:
            bad.append("tau must be > 0")
        check = getattr(self, "_validate_" + self.kind.replace("-", "_"))
        check(bad)
        return bad

    def _validate_sequence_order_scan(self, bad: list[str]) -> None:
        if len(self.phi_grid) < 4:
            bad.append("phi_grid needs at least 4 angles for order fits")
        if any(not 0.0 < v <= 0.3 for v in self.phi_grid):
            bad.append("phi_grid angles must lie in (0, 0.3]")
        if list(self.phi_grid) != sorted(set(self.phi_grid)):
            bad.append("phi_grid must be strictly increasing")

    def _validate_spectrum(self, bad: list[str]) -> None:
        if not self.chi_grid:
            bad.append("chi_grid must not be empty")
        if self.h_z < 0:
            bad.append("h_z must be >= 0")
        if self.chi_pairs != "sequence":
            bad.append(f"chi_pairs must be sequence, got {self.chi_pairs!r}")
        if not 5 <= self.n_eigenvalues <= 32:
            bad.append("n_eigenvalues must lie in [5, 32] (manifold plus gap)")

    def _validate_fidelity_scan(self, bad: list[str]) -> None:
        self._validate_spectrum(bad)

    def _validate_thermalize(self, bad: list[str]) -> None:
        if self.lattice_l != 2:
            bad.append("thermalize needs lattice_l = 2 (no L = 3 golden "
                       "outputs yet)")
        if not 0.0 <= self.p < 1.0:
            bad.append(f"p must lie in [0, 1), got {self.p}")
        if self.lambda_star < 0 or self.gamma_star < 0:
            bad.append("lambda_star and gamma_star must be >= 0")
        if self.lambda_star + self.gamma_star == 0:
            bad.append("at least one of lambda_star, gamma_star must be > 0")
        if self.t_final <= 0:
            bad.append("t_final must be > 0")
        if self.n_times < 2:
            bad.append("n_times must be >= 2")

    def _validate_cool_with_noise(self, bad: list[str]) -> None:
        if self.lattice_l != 2:
            bad.append("cool-with-noise needs lattice_l = 2 (no L = 3 golden "
                       "outputs yet)")
        if self.lambda_star <= 0:
            bad.append("lambda_star (the cooling rate) must be > 0")
        if self.omega <= 0:
            bad.append("omega must be > 0")
        if not self.ratio_grid:
            bad.append("ratio_grid must not be empty")
        if any(r <= 0 for r in self.ratio_grid):
            bad.append("ratio_grid entries must be > 0")
        if len(set(self.ratio_grid)) != len(self.ratio_grid):
            bad.append("ratio_grid entries must be distinct")

    def _validate_pump(self, bad: list[str]) -> None:
        if not 0.0 <= self.theta <= math.pi / 2:
            bad.append(f"theta must lie in [0, pi/2], got {self.theta}")
        if self.gamma20 <= 0:
            bad.append("gamma20 must be > 0")

    def _validate_eliminate(self, bad: list[str]) -> None:
        positive = [g for g in self.coupling_grid if g > 0]
        if any(g < 0 for g in self.coupling_grid):
            bad.append("coupling_grid entries must be >= 0")
        if len(set(positive)) < 2 or len(set(self.relaxation_grid)) < 2:
            bad.append("eliminate needs >= 2 positive couplings and "
                       ">= 2 relaxations")
        if any(l <= 0 for l in self.relaxation_grid):
            bad.append("relaxation_grid entries must be > 0")
        if self.step_time <= 0:
            bad.append("step_time must be > 0")
        if positive and self.relaxation_grid:
            if max(positive) > 0.1 * min(self.relaxation_grid):
                bad.append("couplings must satisfy g <= relaxation / 10")
            if max(positive) * self.step_time >= math.pi / 2:
                bad.append("stroboscopic validity needs "
                           "coupling * step_time < pi/2")

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ConfigError(problems)

    # -- canonical form, hashing, serialization --------------------------

    def canonical(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def config_hash(self) -> str:
        # outdir excluded: the hash covers what is computed, not where
        # the files land, so records are byte-identical across outdirs
        data = {k: v for k, v in self.canonical().items() if k != "outdir"}
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()
                              ).hexdigest()

    def resolve_outdir(self) -> Path:
        if self.outdir:
            return Path(self.outdir)
        return Path(os.environ.get(OUTDIR_ENV, "."))

    @classmethod
    def from_ini(cls, text: str, **overrides) -> "ScenarioConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError([f"config file does not parse: {exc}"]) from exc
        problems: list[str] = []
        values: dict = {}
        for section in parser.sections():
            for key, raw in parser.items(section):
                spec = FIELD_SPEC.get(key)
                if spec is None or spec[0] != section:
                    problems.append(f"unknown key [{section}] {key}")
                    continue
                try:
                    values[key] = parse_value(spec[1], raw)
                except ValueError:
                    problems.append(f"[{section}] {key}: cannot parse {raw!r}")
        if problems:
            raise ConfigError(problems)
        values.update(overrides)
        if "kind" not in values:
            raise ConfigError(["[scenario] kind is required"])
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ScenarioConfig":
        return cls.from_ini(Path(path).read_text(), **overrides)


def describe_defaults() -> str:
    """Commented INI listing every field, its default, and what it does,
    values written as :func:`parse_value` reads them back."""
    defaults = ScenarioConfig(kind=KINDS[0])
    lines = ["# toricsim scenario configuration (key = value sections)",
             f"# schema v{SCHEMA_VERSION}; {OMEGA_DEFINITION}", ""]
    for section in dict.fromkeys(s for s, _, _ in FIELD_SPEC.values()):
        lines.append(f"[{section}]")
        for name, (sec, kind, help_text) in FIELD_SPEC.items():
            if sec != section:
                continue
            value = getattr(defaults, name)
            text = (", ".join(repr(v) for v in value) if kind == "floats"
                    else str(value))
            lines.append(f"# {help_text}")
            lines.append(f"{name} = {text}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run records and file emission
# ---------------------------------------------------------------------------


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class RunRecord:
    """Everything a run produced, deterministic except wall time."""

    scenario: str
    config_hash: str
    versions: dict[str, str]
    omega_definition: str
    assertions: list[Assertion]
    outputs: tuple[str, ...]
    wall_time_s: float
    solver: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json(self) -> str:
        """The record as written to disk: everything but the wall time."""
        data = {
            "scenario": self.scenario,
            "config_hash": self.config_hash,
            "versions": self.versions,
            "omega_definition": self.omega_definition,
            "assertions": [{"name": a.name, "passed": a.passed,
                            "detail": a.detail} for a in self.assertions],
            # basenames only: emitted bytes must not depend on the outdir
            "outputs": [Path(p).name for p in self.outputs],
        }
        if self.solver:
            data["solver"] = self.solver
        return json.dumps(data, sort_keys=True, indent=1)

    def summary_lines(self) -> list[str]:
        mark = {True: "PASS", False: "FAIL"}
        lines = [f"[{mark[a.passed]}] {a.name}: {a.detail}"
                 for a in self.assertions]
        lines.append(f"{'ok' if self.ok else 'FAILED'}: {self.scenario} "
                     f"({len(self.assertions)} assertions, "
                     f"{self.wall_time_s:.2f}s)")
        return lines


def _versions() -> dict[str, str]:
    return {"toricsim": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version()}


def _solver_value(value: float | None) -> float | None:
    """``value`` rounded to ``SOLVER_DECIMALS``, -0.0 folded into 0.0."""
    return None if value is None else round(float(value), SOLVER_DECIMALS) + 0.0


def _cell(value, solver: bool = False) -> str:
    if isinstance(value, float):
        if solver:
            return f"{_solver_value(value):.{SOLVER_DECIMALS}f}"
        return "%.12e" % value
    return str(value)


def _csv_text(schema: str, columns: Sequence[str], rows: Sequence[Sequence],
              units: str = "", solver_columns: Sequence[str] = ()) -> str:
    header = f"# toricsim-csv v{SCHEMA_VERSION} schema={schema}"
    if units:
        header += f" units={units}"
    lines = [header, ",".join(columns)]
    lines.extend(",".join(_cell(v, c in solver_columns)
                          for c, v in zip(columns, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


_FIGURE_SCHEMAS: dict[str, tuple[tuple[str, ...], str]] = {
    "sequence-order-scan": (("phi", "term", "measured", "predicted",
                             "rel_error"), "coefficients in 1/tau"),
    "spectrum": (("chi", "h_z", "index", "energy", "residual_bound"),
                 "energies in J_e = J_m = 1"),
    "fidelity": (("chi", "subspace_fidelity", "sector_0", "sector_1",
                  "sector_2", "sector_3", "manifold_spread", "gap"),
                 "energies in J_e = J_m = 1"),
    "thermalize": (("t", "energy", "entropy", "excitation_density",
                    "trace_distance_to_stationary"),
                   "energies in J_e = J_m = 1; entropy in nats"),
    "cool-with-noise": (("ratio", "gamma_c", "gamma_e", "epg",
                         "excitation_density", "fitted_temperature"),
                        "temperatures in J_e = J_m = 1"),
    "eliminate": (("coupling", "relaxation", "rate", "fit_residual"), ""),
}
# columns printed fixed-point at SOLVER_DECIMALS
_SOLVER_COLUMNS: dict[str, tuple[str, ...]] = {
    "spectrum": ("energy",),
    "fidelity": ("subspace_fidelity", "sector_0", "sector_1", "sector_2",
                 "sector_3", "manifold_spread", "gap"),
    "thermalize": ("energy", "entropy", "excitation_density",
                   "trace_distance_to_stationary"),
    "cool-with-noise": ("excitation_density", "fitted_temperature"),
}


def emit_figure_data(kind: str, rows: Sequence[Sequence]) -> str:
    """The CSV text of one figure kind, under its versioned schema header."""
    if kind not in _FIGURE_SCHEMAS:
        raise ValueError(f"unknown figure kind {kind!r}; "
                         f"known: {', '.join(sorted(_FIGURE_SCHEMAS))}")
    columns, units = _FIGURE_SCHEMAS[kind]
    return _csv_text(kind, columns, rows, units, _SOLVER_COLUMNS.get(kind, ()))


# ---------------------------------------------------------------------------
# shared diagnostics
# ---------------------------------------------------------------------------


# a test oracle, kept here because perfbench/spans.py wraps it by name
def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr rho ln rho in nats, clipped at the numerical floor."""
    return population_entropy(np.linalg.eigvalsh(rho))


def population_entropy(populations: np.ndarray) -> float:
    """Shannon entropy -sum p ln p in nats, clipped at the numerical floor;
    for frame populations it is the von Neumann entropy of the state."""
    vals = populations[populations > 1e-15]
    return float(-(vals * np.log(vals)).sum())


# a test oracle, kept here because perfbench/spans.py wraps it by name
def excitation_density(rho: np.ndarray, lat: lt.TorusLattice) -> float:
    """Mean flipped-stabilizer weight (1 - <h>)/2 over all stabilizers."""
    stabs = lt.stabilizers(lat)
    total = 0.0
    for stab in stabs:
        total += (1.0 - stab.expectation(rho).real) / 2.0
    return total / len(stabs)


def _fitted_temperature(density: float) -> float:
    """Boltzmann inversion of the per-stabilizer excitation weight."""
    if density <= 0.0:
        return 0.0
    if density >= 0.5:
        return math.inf
    return STABILIZER_GAP / math.log((1.0 - density) / density)


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rank correlation: the Pearson correlation of the ranks,
    each run of tied values ranked at the mean of its positions.  It is
    ``np.corrcoef`` of the column-stacked ranks, as in
    ``scipy.stats.spearmanr``, so the two agree to the last bit."""
    def ranks(v):
        below = (v[None, :] < v[:, None]).sum(axis=1)
        at_or_below = (v[None, :] <= v[:, None]).sum(axis=1)
        return 0.5 * (below + 1 + at_or_below)

    return float(np.corrcoef(np.column_stack((ranks(x), ranks(y))),
                             rowvar=False)[1, 0])


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------


@dataclass
class _Parts:
    assertions: list[Assertion] = field(default_factory=list)
    files: list[tuple[str, str]] = field(default_factory=list)  # name, text
    solver: dict = field(default_factory=dict)  # deterministic counters

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.assertions.append(Assertion(name, bool(passed), detail))


def _run_sequence_order_scan(cfg: ScenarioConfig) -> _Parts:
    parts = _Parts()
    rows = []
    ixyi_ok = True
    # one matrix log per sequence and angle feeds both the rows and the fits
    reports = {phi: sq.effective_hamiltonian(
        sq.echoed_u123(phi, phi, phi, tau=cfg.tau),
        targets=sq.eq3_targets(phi, cfg.tau, echoed=True))
        for phi in cfg.phi_grid}
    for phi, rep in reports.items():
        for label, (measured, predicted) in sorted(rep.target_coefficients.items()):
            meas = float(np.real(measured))
            pred = float(np.real(predicted))
            rel = abs(meas - pred) / abs(pred)
            rows.append((phi, label, meas, pred, rel))
            if label == "IXYI" and rel >= phi:
                ixyi_ok = False
    single = sq.order_scan({phi: sq.effective_hamiltonian(
        sq.u123(phi, phi, phi, tau=cfg.tau)) for phi in cfg.phi_grid})
    echoed = sq.order_scan(reports)
    extra = {"single_term_slopes": single.term_slopes,
             "single_residual_slope": single.residual_slope,
             "echoed_residual_slope": echoed.residual_slope,
             "phi_grid": list(cfg.phi_grid)}
    parts.files.append(("sequence-order-scan.json",
                        json.dumps(extra, sort_keys=True, indent=1)))
    parts.files.append(("sequence-order-scan.csv",
                        emit_figure_data("sequence-order-scan", rows)))
    for term in ("IXZZ", "ZZYI"):
        slope = single.term_slopes.get(term, math.nan)
        parts.check(f"single-residual-order-{term.lower()}",
                    abs(slope - 4.0) <= 0.3, f"slope {slope:.3f} vs 4.0 +- 0.3")
    parts.check("echoed-residual-order", echoed.residual_slope >= 5.5,
                f"slope {echoed.residual_slope:.3f} vs >= 5.5")
    parts.check("ixyi-coefficient", ixyi_ok,
                "relative error < phi at every grid angle")
    return parts


def _chi_scan(cfg: ScenarioConfig,
              parts: _Parts) -> list[sp.FidelityScanPoint]:
    """The solved points of the configured chi scan.  Their solver counters
    and the number of sector structures the scan built go into the record,
    and any failed point fails ``solver-converged``."""
    scan = sp.fidelity_scan(lt.build(cfg.lattice_l), cfg.chi_grid,
                            h_z=cfg.h_z, k=cfg.n_eigenvalues, seed=cfg.seed)
    solved = [p for p in scan if p.error is None]
    parts.solver = {"points": [{"chi": p.chi, **p.counters} for p in solved],
                    "structures": scan.structures}
    failures = [p.chi for p in scan if p.error is not None]
    parts.check("solver-converged", not failures,
                f"failed chi points: {failures or 'none'}")
    return solved


def _run_spectrum(cfg: ScenarioConfig) -> _Parts:
    parts = _Parts()
    points = _chi_scan(cfg, parts)
    rows = [(p.chi, cfg.h_z, i, float(e), p.residual_bound)
            for p in points for i, e in enumerate(p.eigenvalues)]
    quasi = [{"chi": p.chi, "manifold_spread": _solver_value(p.manifold_spread),
              "gap": _solver_value(p.gap)} for p in points]
    parts.files.append(("spectrum.csv", emit_figure_data("spectrum", rows)))
    parts.files.append(("spectrum.json",
                        json.dumps({"points": quasi}, sort_keys=True, indent=1)))
    window = [q for q in quasi if abs(q["chi"]) <= 0.2]
    degen = all(q["manifold_spread"] < q["gap"] / 5.0 for q in window)
    parts.check("fourfold-quasi-degeneracy", degen and bool(window),
                f"spread < gap/5 at all |chi| <= 0.2 ({len(window)} points)")
    return parts


def _run_fidelity_scan(cfg: ScenarioConfig) -> _Parts:
    parts = _Parts()
    rows = [(p.chi, p.subspace_fidelity, *map(float, p.sector_weights),
             p.manifold_spread, p.gap) for p in _chi_scan(cfg, parts)]
    parts.files.append(("fidelity.csv", emit_figure_data("fidelity", rows)))
    window = [(chi, fid) for chi, fid, *_ in rows if abs(chi) <= 0.4]
    protected = all(fid >= 0.8 for _, fid in window)
    parts.check("protected-window", protected and bool(window),
                f"subspace fidelity >= 0.8 at all |chi| <= 0.4 "
                f"({len(window)} points)")
    at_zero = [fid for chi, fid, *_ in rows if chi == 0.0]
    # recorded only on a grid holding chi = 0: the ed-l3 workload of
    # perfbench scans chi = 0.2 alone, and a check that failed without a
    # chi = 0 point would fail that run
    if at_zero:
        parts.check("reference-limit", at_zero[0] > 0.99,
                    f"fidelity {at_zero[0]:.5f} at chi = 0")
    return parts


def _run_thermalize(cfg: ScenarioConfig) -> _Parts:
    parts = _Parts()
    lat = lt.build(cfg.lattice_l)
    model = lb.thermal_jump_set(lat, p=cfg.p, lambda_star=cfg.lambda_star,
                                gamma_star=cfg.gamma_star)
    stat = lb.stationary_state(model)
    labels = model.labels
    times = np.linspace(0.0, cfg.t_final, cfg.n_times)
    out = lb.evolve(model, (np.full(labels.n_orbits, 1.0 / labels.n_orbits),
                            np.full(labels.n_char, 1.0 / labels.n_char)), times)
    # every sample is frame-diagonal: energy and excitation density are
    # label-additive and read off the marginals, entropy and distance off
    # the product populations of the Kronecker-sum chain
    w_e, w_m = labels.excitation_weights
    stationary = stat.populations
    rows = []
    for t, p_e, p_m, pops in zip(out.times, out.orbit_populations,
                                 out.char_populations, out.populations):
        rows.append((float(t),
                     float(p_e @ stat.orbit_energies + p_m @ stat.char_energies),
                     population_entropy(pops),
                     float(p_e @ w_e + p_m @ w_m),
                     float(0.5 * np.abs(pops - stationary).sum())))
    parts.files.append(("thermalize.csv", emit_figure_data("thermalize", rows)))
    report = {
        "null_dim": stat.null_dim,
        "residual": _solver_value(stat.residual),
        "detailed_balance_temperature": stat.detailed_balance_temperature,
        "trace_distance_to_detailed_balance":
            _solver_value(stat.trace_distance_to_detailed_balance),
        "loop_expectations": {name: _solver_value(value) for name, value
                              in stat.loop_expectations.items()},
    }
    parts.files.append(("thermalize.json",
                        json.dumps(report, sort_keys=True, indent=1)))
    parts.solver = {"stationary": stat.counters, "evolve": out.counters}
    parts.check("stationary-residual", stat.residual < 1e-8,
                f"label-chain residual {stat.residual:.2e} vs < 1e-8")
    expected = 1 if cfg.p > 0 else 4
    parts.check("fixed-point-multiplicity", stat.null_dim == expected,
                f"null dimension {stat.null_dim} vs {expected}")
    distances = [row[4] for row in rows]
    monotone = all(a >= b for a, b in zip(distances, distances[1:]))
    parts.check("monotone-approach", monotone,
                "trace distance to the fixed point never increases")
    parts.check("converged", distances[-1] < 1e-6,
                f"final distance {distances[-1]:.2e} vs < 1e-6")
    return parts


@dataclass
class CoolingPoint:
    ratio: float
    gamma_c: float
    gamma_e: float
    epg: float
    excitation_density: float
    fitted_temperature: float
    residual: float
    steady: bool
    solver: dict = field(default_factory=dict)  # stationary-state counters


@dataclass
class CoolingSweep:
    points: list[CoolingPoint]
    fit_constant: float | None
    fit_residual: float | None
    rank_correlation: float | None
    omega: float
    omega_definition: str = OMEGA_DEFINITION


def cool_with_noise(cfg: ScenarioConfig) -> CoolingSweep:
    """Steady states of engineered cooling against depolarizing noise.

    The cooling rate is Gamma_c = lambda_star per link; the noise rate is
    Gamma_e = EPG * omega per link (depolarizing on every link).  Each
    ratio of ``ratio_grid`` fixes Gamma_e = Gamma_c / ratio, and the sweep
    reports the per-ratio EPG.  The fitted temperature comes from the
    Boltzmann inversion of the mean per-stabilizer excitation weight, and
    the sweep is fit to T = c * Delta / ln(Gamma_c / Gamma_e) with the
    residual reported.

    Each point reweights the label chains of one sweep model
    (``LindbladModel.with_rates``).  Depolarizing Y moves both frame
    labels, so only the label marginals are known; the density is
    label-additive and read off them.
    """
    cfg.require_valid()
    lat = lt.build(cfg.lattice_l)
    gamma_c = cfg.lambda_star
    cooling = lb.cooling_jump_set(lat, lambda_star=gamma_c)
    # every point is noisy: the noise is built once at unit rate
    noise = lb.depolarizing_jumps(lat.n_links, gamma=1.0)
    sweep = lb.LindbladModel(jumps=cooling.jumps + noise, lattice=lat)
    w_e, w_m = sweep.labels.excitation_weights
    points = []
    for ratio in cfg.ratio_grid:
        gamma_e = gamma_c / ratio
        stat = lb.stationary_state(sweep.with_rates(
            [jt.rate for jt in cooling.jumps]
            + [gamma_e * jt.rate for jt in noise]))
        density = float(stat.orbit_populations @ w_e
                        + stat.char_populations @ w_m)
        points.append(CoolingPoint(
            ratio=ratio, gamma_c=gamma_c, gamma_e=gamma_e,
            epg=gamma_e / cfg.omega, excitation_density=density,
            fitted_temperature=_fitted_temperature(density),
            residual=stat.residual, steady=stat.residual < 1e-8,
            solver=stat.counters))
    fit_constant = fit_residual = rank = None
    usable = [pt for pt in points
              if pt.ratio > 1.0 and math.isfinite(pt.fitted_temperature)
              and pt.fitted_temperature > 0.0]
    if len(usable) >= 2:
        x = np.array([lb.PAIR_GAP / math.log(pt.ratio) for pt in usable])
        t = np.array([pt.fitted_temperature for pt in usable])
        fit_constant = float(x @ t / (x @ x))
        fit_residual = float(np.sqrt(np.mean((t - fit_constant * x) ** 2))
                             / np.mean(t))
        rank = rank_correlation(x, t)
    return CoolingSweep(points=points, fit_constant=fit_constant,
                        fit_residual=fit_residual, rank_correlation=rank,
                        omega=cfg.omega)


def _run_cool_with_noise(cfg: ScenarioConfig) -> _Parts:
    parts = _Parts()
    sweep = cool_with_noise(cfg)
    rows = [(pt.ratio, pt.gamma_c, pt.gamma_e, pt.epg, pt.excitation_density,
             pt.fitted_temperature) for pt in sweep.points]
    parts.files.append(("cool-with-noise.csv",
                        emit_figure_data("cool-with-noise", rows)))
    report = {
        "fit_constant": _solver_value(sweep.fit_constant),
        "fit_residual": _solver_value(sweep.fit_residual),
        "rank_correlation": sweep.rank_correlation,
        "omega": sweep.omega,
        "omega_definition": sweep.omega_definition,
        "pair_gap": lb.PAIR_GAP,
    }
    parts.files.append(("cool-with-noise.json",
                        json.dumps(report, sort_keys=True, indent=1)))
    parts.solver = {"points": [{"gamma_e": pt.gamma_e, **pt.solver}
                               for pt in sweep.points]}
    parts.check("steady", all(pt.steady for pt in sweep.points),
                f"max label-chain residual "
                f"{max(pt.residual for pt in sweep.points):.2e}")
    # both checks always run: a sweep too short to show cooling fails them
    temps = [pt.fitted_temperature
             for pt in sorted(sweep.points, key=lambda pt: pt.ratio)]
    parts.check("monotone-cooling", len(temps) >= 2
                and all(a > b for a, b in zip(temps, temps[1:])),
                "fitted temperature strictly decreases with the ratio"
                + ("" if len(temps) >= 2 else " (one ratio: nothing to order)"))
    fit = sweep.fit_residual
    parts.check("scaling-form", sweep.rank_correlation == 1.0,
                f"rank correlation {sweep.rank_correlation} vs 1.0; "
                + (f"form-fit residual {fit:.3f} (reported)" if fit is not None
                   else "no two ratios above 1 to fit"))
    return parts


def _run_pump(cfg: ScenarioConfig) -> _Parts:
    parts = _Parts()
    res = lb.pump_ancilla(lb.PumpProtocol(theta=cfg.theta,
                                          gamma20=cfg.gamma20))
    populations = np.real(np.diag(res.rho_pseudospin))
    closed = (math.sin(cfg.theta) ** 2, math.cos(cfg.theta) ** 2)
    report = {
        "theta": cfg.theta,
        "populations": [float(populations[0]), float(populations[1])],
        "closed_form": list(closed),
        "effective_temperature": res.effective_temperature,
        "residual_level2": res.residual_level2,
        "total_wait_time": res.total_wait_time,
        "steps": [list(map(str, step)) for step in res.steps_executed],
    }
    parts.files.append(("pump.json",
                        json.dumps(report, sort_keys=True, indent=1)))
    err = max(abs(populations[0] - closed[0]), abs(populations[1] - closed[1]))
    parts.check("closed-form-populations", err < 1e-4,
                f"max population error {err:.2e} vs < 1e-4")
    parts.check("residual-level2", res.residual_level2 < 1e-8,
                f"residual {res.residual_level2:.2e} vs < 1e-8")
    coherence = abs(res.rho_pseudospin[0, 1])
    parts.check("diagonal-output", coherence < 1e-10,
                f"pseudospin coherence {coherence:.2e}")
    return parts


def _run_eliminate(cfg: ScenarioConfig) -> _Parts:
    parts = _Parts()
    report = lb.adiabatic_elimination_probe(cfg.coupling_grid,
                                            cfg.relaxation_grid)
    rows = [(pt.coupling, pt.relaxation, pt.rate, pt.fit_residual)
            for pt in report.points]
    parts.files.append(("eliminate.csv", emit_figure_data("eliminate", rows)))
    summary = {
        "coupling_exponent": report.coupling_exponent,
        "relaxation_exponent": report.relaxation_exponent,
        "model_residuals": report.model_residuals,
        "favored_model": report.favored_model,
        "prefactor": report.prefactor,
        "max_coupling_times_step": max(cfg.coupling_grid) * cfg.step_time,
    }
    parts.files.append(("eliminate.json",
                        json.dumps(summary, sort_keys=True, indent=1)))
    parts.check("coupling-exponent",
                abs(report.coupling_exponent - 2.0) <= 0.1,
                f"exponent {report.coupling_exponent:.3f} vs 2.0 +- 0.1")
    parts.check("model-comparison",
                set(report.model_residuals) == {"coupling^2 / relaxation",
                                                "coupling^2 * relaxation"},
                f"favored: {report.favored_model} "
                f"(residuals {report.model_residuals})")
    limit = max(cfg.coupling_grid) * cfg.step_time
    parts.check("stroboscopic-validity", limit < math.pi / 2,
                f"max coupling * step_time {limit:.3f} vs < pi/2")
    return parts


_SCENARIOS: Mapping[str, Callable[[ScenarioConfig], _Parts]] = {
    "sequence-order-scan": _run_sequence_order_scan,
    "spectrum": _run_spectrum,
    "fidelity-scan": _run_fidelity_scan,
    "thermalize": _run_thermalize,
    "cool-with-noise": _run_cool_with_noise,
    "pump": _run_pump,
    "eliminate": _run_eliminate,
}


def run(cfg: ScenarioConfig) -> RunRecord:
    """Validate, dispatch, write outputs atomically, and record the run."""
    cfg.require_valid()
    outdir = cfg.resolve_outdir()
    start = time.perf_counter()
    parts = _SCENARIOS[cfg.kind](cfg)
    wall = time.perf_counter() - start
    written = []
    for name, text in parts.files:
        path = outdir / name
        _atomic_write(path, text)
        written.append(str(path))
    record = RunRecord(
        scenario=cfg.kind, config_hash=cfg.config_hash(),
        versions=_versions(), omega_definition=OMEGA_DEFINITION,
        assertions=parts.assertions,
        outputs=tuple(written), wall_time_s=wall, solver=parts.solver)
    record_path = outdir / f"{cfg.kind}-record.json"
    _atomic_write(record_path, record.to_json() + "\n")
    record.outputs = record.outputs + (str(record_path),)
    return record
