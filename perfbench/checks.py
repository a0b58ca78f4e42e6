"""Checks of the files a pass emits, against computations made apart from
the program (``reference.py``) and against properties the outputs must
have.  Every check reads only the emitted CSV and JSON files.

Tolerances are derived, not tuned: a printed cell is exact to half a unit
of its last printed digit, an eigensolver's level is exact to its verified
residual bound, and a dense reference level to dim * eps * sum|coefficient|.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
import workloads


class CheckFailed(AssertionError):
    """An emitted value is outside its derived tolerance."""


@dataclass(frozen=True)
class Check:
    name: str
    needs: tuple[str, ...]          # commands whose output the check reads
    run: Callable[[Path, dict], str]


# ---------------------------------------------------------------------------
# reading emitted files
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# toricsim-csv"):
        raise CheckFailed(f"{path.name}: missing schema header")
    return list(csv.DictReader(lines[1:]))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def half_unit(cell: str) -> float:
    """Half a unit of the last printed digit of a numeric cell."""
    mantissa, _, exponent = cell.strip().lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 0.5 * 10.0 ** (int(exponent or 0) - decimals)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def scenario_ok(outdir: Path, kind: str, exit_code) -> tuple[bool, str]:
    """A call succeeds when it exits 0 and its record shows every
    assertion passing."""
    if exit_code != 0:
        return False, f"exit code {exit_code}"
    try:
        record = read_json(outdir / f"{kind}-record.json")
    except (OSError, ValueError) as exc:
        return False, f"run record unreadable: {exc}"
    failed = [a["name"] for a in record["assertions"] if not a["passed"]]
    if failed or not record["assertions"]:
        return False, f"failed assertions: {failed or 'none recorded'}"
    return True, f"{len(record['assertions'])} assertions passed"


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def match_levels(rows: list[dict[str, str]], levels: np.ndarray,
                 reference_error: float, label: str) -> str:
    """Each emitted energy within residual_bound + half a printed unit of
    the reference level of the same index."""
    require(len(rows) == len(levels),
            f"{label}: {len(rows)} energies, expected {len(levels)}")
    worst = 0.0
    for row, level in zip(sorted(rows, key=lambda r: int(r["index"])), levels):
        tol = (float(row["residual_bound"]) + half_unit(row["energy"])
               + reference_error)
        err = abs(float(row["energy"]) - level)
        require(err <= tol, f"{label}: level {row['index']} emitted "
                f"{row['energy']}, reference {level:.12f}, "
                f"|diff| {err:.2e} > {tol:.2e}")
        worst = max(worst, err / tol)
    return f"{label}: {len(rows)} levels, worst |diff|/tol {worst:.3f}"


def fidelity_bounds(rows: list[dict[str, str]]) -> str:
    """subspace_fidelity <= sqrt(mean sector_k^2) <= 1 (Cauchy-Schwarz on
    the singular values of the overlap matrix)."""
    for row in rows:
        fid = float(row["subspace_fidelity"])
        cells = [row[f"sector_{k}"] for k in range(4)]
        rms = math.sqrt(sum(float(c) ** 2 for c in cells) / 4)
        slack = half_unit(row["subspace_fidelity"]) + max(map(half_unit, cells))
        require(fid <= rms + slack and rms <= 1.0 + slack,
                f"chi {row['chi']}: fidelity {fid} vs rms sector weight "
                f"{rms:.12f} vs 1")
    return f"{len(rows)} rows satisfy fidelity <= rms(sector) <= 1"


def _rows_at(rows: list[dict[str, str]], chi: float) -> list[dict[str, str]]:
    return [r for r in rows if float(r["chi"]) == chi]


# ---------------------------------------------------------------------------
# ed-l3
# ---------------------------------------------------------------------------


def _ed_reference() -> dict:
    spec = workloads.call("ed-l3", "spectrum")
    fid = workloads.call("ed-l3", "fidelity-scan")
    levels, error = reference.vertex_block_levels(
        spec.field("lattice_l"), spec.field("h_z"),
        spec.field("n_eigenvalues"))
    (chi,) = fid.field("chi_grid")
    small, small_error = reference.dense_levels(2, chi, fid.field("h_z"))
    return {"levels": levels, "error": error, "chi": chi,
            "spread_l2": small[3] - small[0], "spread_l2_error": 2 * small_error}


def _ed_spectrum(outdir: Path, ref: dict) -> str:
    rows = read_csv(outdir / "spectrum.csv")
    return match_levels(_rows_at(rows, 0.0), ref["levels"], ref["error"],
                        "L = 3, chi = 0 vs vertex blocks")


def _ed_suppression(outdir: Path, ref: dict) -> str:
    (row,) = _rows_at(read_csv(outdir / "fidelity.csv"), ref["chi"])
    spread = float(row["manifold_spread"]) + half_unit(row["manifold_spread"])
    bound = ref["spread_l2"] - ref["spread_l2_error"]
    require(spread < bound, f"L = 3 spread {row['manifold_spread']} not "
            f"below L = 2 spread {ref['spread_l2']:.6e}")
    return (f"L = 3 spread {float(row['manifold_spread']):.3e} < "
            f"L = 2 spread {ref['spread_l2']:.3e} at chi = {ref['chi']}")


def _ed_fidelity(outdir: Path, ref: dict) -> str:
    return fidelity_bounds(read_csv(outdir / "fidelity.csv"))


# ---------------------------------------------------------------------------
# dissipation-l2
# ---------------------------------------------------------------------------

# the maximally mixed start passes through one orthogonal change of frame;
# its round-off is ~dim * eps ~ 6e-14, far below this bound and far below
# the ~1e-2 change of every column after the first time step
INITIAL_STATE_TOL = 1e-9
PAIR_GAP = 4.0          # creating a pair flips two stabilizers: 2 * 2 J
STABILIZER_GAP = 2.0    # flipping one stabilizer costs 2 J


def _dissipation_reference() -> dict:
    therm = workloads.call("dissipation-l2", "thermalize")
    h = reference.dense_hamiltonian(therm.field("lattice_l"))
    temperature = reference.detailed_balance_temperature(
        therm.field("p"), PAIR_GAP)
    return {"dim": h.shape[0], "norm": reference.spectral_norm(h),
            "temperature": temperature,
            "gibbs_energy": reference.gibbs_energy(h, temperature),
            "error": h.shape[0] * reference.EPS
            * reference.coefficient_norm(therm.field("lattice_l"))}


def _thermalize_start(outdir: Path, ref: dict) -> str:
    first = read_csv(outdir / "thermalize.csv")[0]
    expected = {"t": 0.0, "energy": 0.0, "entropy": math.log(ref["dim"]),
                "excitation_density": 0.5}
    for column, value in expected.items():
        err = abs(float(first[column]) - value)
        require(err <= INITIAL_STATE_TOL + half_unit(first[column]),
                f"first row {column} {first[column]} vs {value}")
    return "first row is I/256: energy 0, entropy ln 256, density 1/2"


def _thermalize_gibbs(outdir: Path, ref: dict) -> str:
    last = read_csv(outdir / "thermalize.csv")[-1]
    report = read_json(outdir / "thermalize.json")
    distance = (float(last["trace_distance_to_stationary"])
                + report["trace_distance_to_detailed_balance"])
    tol = 2 * ref["norm"] * distance + half_unit(last["energy"]) + ref["error"]
    err = abs(float(last["energy"]) - ref["gibbs_energy"])
    require(err <= tol, f"final energy {last['energy']} vs Gibbs "
            f"{ref['gibbs_energy']:.12e} at T = {ref['temperature']:.6f}: "
            f"|diff| {err:.2e} > {tol:.2e}")
    return (f"final energy within {err:.2e} of Tr(H rho_Gibbs) = "
            f"{ref['gibbs_energy']:.6f} (bound {tol:.2e})")


def _cool_inversion(outdir: Path, ref: dict) -> str:
    rows = read_csv(outdir / "cool-with-noise.csv")
    require(bool(rows), "no cooling rows")
    for row in rows:
        d = float(row["excitation_density"])
        require(0.0 < d < 0.5, f"density {d} outside (0, 1/2)")
        expected = reference.fitted_temperature(d, STABILIZER_GAP)
        slope = expected ** 2 / (STABILIZER_GAP * d * (1.0 - d))
        tol = (half_unit(row["fitted_temperature"])
               + slope * half_unit(row["excitation_density"])
               + 8 * reference.EPS * expected)
        err = abs(float(row["fitted_temperature"]) - expected)
        require(err <= tol, f"ratio {row['ratio']}: temperature "
                f"{row['fitted_temperature']} vs 2/ln((1-d)/d) = "
                f"{expected:.12e}")
    return f"{len(rows)} temperatures invert their densities"


def _cool_monotone(outdir: Path, ref: dict) -> str:
    rows = read_csv(outdir / "cool-with-noise.csv")
    ratios = [float(r["ratio"]) for r in rows]
    expected = workloads.call("dissipation-l2", "cool").field("ratio_grid")
    require(sorted(ratios) == sorted(expected), f"ratios {ratios}")
    by_ratio = sorted(rows, key=lambda r: float(r["ratio"]))
    density = [float(r["excitation_density"]) for r in by_ratio]
    require(all(0.0 < d < 0.5 for d in density)
            and all(a > b for a, b in zip(density, density[1:])),
            f"densities {density} do not fall strictly inside (0, 1/2)")
    return f"density falls {density[0]:.3e} -> {density[-1]:.3e}"


# ---------------------------------------------------------------------------
# figures-l2
# ---------------------------------------------------------------------------


def _figures_reference() -> dict:
    spec = workloads.call("figures-l2", "spectrum")
    L, h_z = spec.field("lattice_l"), spec.field("h_z")
    levels = {}
    for chi in spec.field("chi_grid"):
        values, error = reference.dense_levels(L, chi, h_z)
        levels[chi] = (values, error)
    return {"levels": levels, "k": spec.field("n_eigenvalues")}


def _figures_spectrum(outdir: Path, ref: dict) -> str:
    rows = read_csv(outdir / "spectrum.csv")
    require(len(rows) == len(ref["levels"]) * ref["k"],
            f"{len(rows)} spectrum rows")
    for chi, (values, error) in ref["levels"].items():
        match_levels(_rows_at(rows, chi), values[:ref["k"]], error,
                     f"L = 2, chi = {chi}")
    return (f"{len(rows)} energies at {len(ref['levels'])} chi points match "
            f"numpy.linalg.eigvalsh")


def _figures_fidelity(outdir: Path, ref: dict) -> str:
    rows = read_csv(outdir / "fidelity.csv")
    require(len(rows) == len(ref["levels"]), f"{len(rows)} fidelity rows")
    for chi, (values, error) in ref["levels"].items():
        (row,) = _rows_at(rows, chi)
        for column, level in (("manifold_spread", values[3] - values[0]),
                              ("gap", values[4] - values[3])):
            # both levels are off by at most `error` in either solve
            tol = half_unit(row[column]) + 4 * error
            require(abs(float(row[column]) - level) <= tol,
                    f"chi {chi}: {column} {row[column]} vs {level:.12f}")
    return (f"spread and gap at {len(rows)} chi points match eigvalsh; "
            + fidelity_bounds(rows))


def _sequence_closed_forms(outdir: Path, ref: dict) -> str:
    call = workloads.call("figures-l2", "sequence-scan")
    tau = call.field("tau")
    rows = read_csv(outdir / "sequence-order-scan.csv")
    seen = set()
    worst = {"ZZZZ": 0.0, "IXYI": 0.0}
    for row in rows:
        phi, term = float(row["phi"]), row["term"]
        if term == "ZZZZ":
            target = -(2 / (5 * tau)) * phi ** 3 * (1 - 2 * phi ** 2)
            bound = phi ** 2
        elif term == "IXYI":
            target = (2 / (5 * tau)) * phi ** 5
            bound = phi
        else:
            continue
        rel = abs(float(row["measured"]) - target) / abs(target)
        require(rel < bound, f"{term} at phi = {phi}: relative error "
                f"{rel:.3e} vs < {bound:.3e}")
        worst[term] = max(worst[term], rel / bound)
        seen.add((phi, term))
    expected = {(phi, t) for phi in call.field("phi_grid")
                for t in ("ZZZZ", "IXYI")}
    require(seen == expected, f"rows for {sorted(seen)}")
    return (f"ZZZZ and IXYI at {len(expected) // 2} angles; worst "
            f"rel/bound {worst['ZZZZ']:.3f} and {worst['IXYI']:.3f}")


def _pump_populations(outdir: Path, ref: dict) -> str:
    theta = workloads.call("figures-l2", "pump").field("theta")
    populations = read_json(outdir / "pump.json")["populations"]
    closed = (math.sin(theta) ** 2, math.cos(theta) ** 2)
    err = max(abs(p - c) for p, c in zip(populations, closed))
    require(len(populations) == 2 and err < 1e-4,
            f"populations {populations} vs {closed}")
    return f"populations within {err:.1e} of sin^2, cos^2 theta"


def _eliminate_rates(outdir: Path, ref: dict) -> str:
    call = workloads.call("figures-l2", "eliminate")
    rows = read_csv(outdir / "eliminate.csv")
    grid = {(g, lam) for g in call.field("coupling_grid")
            for lam in call.field("relaxation_grid")}
    worst = 0.0
    for row in rows:
        g, lam = float(row["coupling"]), float(row["relaxation"])
        predicted = 4 * g * g / lam
        rel = abs(float(row["rate"]) - predicted) / predicted
        require(rel <= 0.05, f"g = {g}, relaxation = {lam}: rate "
                f"{row['rate']} vs 4g^2/lambda = {predicted:.6e}")
        worst = max(worst, rel)
    require({(float(r["coupling"]), float(r["relaxation"])) for r in rows}
            == grid and len(rows) == len(grid), f"{len(rows)} grid points")
    return f"{len(rows)} rates within {worst:.1%} of 4 g^2 / lambda"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECKS: dict[str, tuple[Check, ...]] = {
    "ed-l3": (
        Check("spectrum-matches-vertex-blocks", ("spectrum",), _ed_spectrum),
        Check("spread-suppressed-with-size", ("fidelity-scan",),
              _ed_suppression),
        Check("fidelity-below-sector-weights", ("fidelity-scan",),
              _ed_fidelity),
    ),
    "dissipation-l2": (
        Check("thermalize-starts-maximally-mixed", ("thermalize",),
              _thermalize_start),
        Check("thermalize-ends-at-gibbs-energy", ("thermalize",),
              _thermalize_gibbs),
        Check("cool-temperature-inverts-density", ("cool",), _cool_inversion),
        Check("cool-density-falls-with-ratio", ("cool",), _cool_monotone),
    ),
    "figures-l2": (
        Check("spectrum-matches-dense", ("spectrum",), _figures_spectrum),
        Check("fidelity-matches-dense", ("fidelity-scan",),
              _figures_fidelity),
        Check("sequence-closed-forms", ("sequence-scan",),
              _sequence_closed_forms),
        Check("pump-closed-form-populations", ("pump",), _pump_populations),
        Check("eliminate-rates", ("eliminate",), _eliminate_rates),
    ),
}

REFERENCES: dict[str, Callable[[], dict]] = {
    "ed-l3": _ed_reference,
    "dissipation-l2": _dissipation_reference,
    "figures-l2": _figures_reference,
}
