"""toricsim benchmark runner.

    python3 perfbench/run.py --workload ed-l3 --seed 7 --seconds 15 --trace 0

Run from the root of a checkout.  Each pass runs the workload's scenario
list through ``toricsim.cli.main`` in a fresh interpreter
(``perfbench/worker.py``) with BLAS and OpenMP pinned to one thread.
Passes repeat until ``--seconds`` have gone, and at least one runs.  Every
interpreter reports its set-up time; when the passes give fewer than
``SETUP_SAMPLES`` of them, interpreters that only import and build the
configs add the rest, so ``setup_s`` is a median even when one pass fills
the run.  One more such interpreter, before the passes, fills the bytecode
cache and is not counted.  Afterwards every pass's files are checked
against computations made apart from the program (``checks.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics, which are the end-to-end ones
(``setup_s``, ``run_s``, ``peak_rss_mib``) with ``--trace 0`` and the
per-layer ones of ``spans.PER_LAYER`` with ``--trace 1``.  One round is one
pass: every scenario call and every check of its files is one operation.
``correct`` is false when a check fails on the files of calls that
succeeded, or when two passes of one run emit different bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 5
RUN_DEADLINE_S = 165.0        # stop starting work; checks need the rest of 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(workload: str, seed: int, pass_dir: Path, trace: int,
           setup_only: bool, timeout: float) -> tuple[dict | None, str]:
    """Run one worker; (result, "") or (None, why it produced none)."""
    pass_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(pass_dir), str(trace)] + (["--setup-only"] if setup_only else [])
    log_path = pass_dir / "worker.log"
    with open(log_path, "w") as log:
        spawned = _monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_worker_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, f"worker killed after {timeout:.0f} s"
    if code != 0:
        tail = log_path.read_text().strip().splitlines()[-1:]
        return None, f"worker exit {code}: {' '.join(tail)}"
    result = json.loads((pass_dir / "result.json").read_text())
    loaded = Path(result["toricsim"]).resolve()
    if ROOT / "src" not in loaded.parents:
        return None, f"imported toricsim from {loaded}, not from this checkout"
    result["setup_s"] = result["ready"] - spawned
    return result, ""


def _file_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _judge(workload: str, passes: list[tuple[Path, dict | None, str]]
           ) -> tuple[int, int, bool]:
    """Count operations over every pass; return (attempted, failed, correct)."""
    import checks
    calls = workloads.WORKLOADS[workload]
    try:
        ref, ref_error = checks.REFERENCES[workload](), ""
    except Exception as exc:  # the checks report it as their failure
        ref, ref_error = None, f"reference failed: {type(exc).__name__}: {exc}"
    attempted = failed = 0
    correct = ref is not None
    digests = set()
    for pass_dir, result, why in passes:
        outdir = pass_dir / "out"
        ok_calls = set()
        for i, c in enumerate(calls):
            if result is None:
                ok, detail = False, why
            else:
                ok, detail = checks.scenario_ok(
                    outdir, c.kind, result["calls"][i]["exit_code"])
            attempted += 1
            failed += not ok
            if ok:
                ok_calls.add(c.command)
            _log(f"  {pass_dir.name} call {c.command}: "
                 f"{'ok' if ok else 'FAILED'} ({detail})")
        for check in checks.CHECKS[workload]:
            try:
                if ref is None:
                    raise checks.CheckFailed(ref_error)
                ok, detail = True, check.run(outdir, ref)
            except Exception as exc:  # every check failure is counted
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            attempted += 1
            failed += not ok
            if not ok and set(check.needs) <= ok_calls:
                correct = False
            _log(f"  {pass_dir.name} check {check.name}: "
                 f"{'ok' if ok else 'FAILED'} ({detail})")
        if len(ok_calls) == len(calls):
            digests.add(json.dumps(_file_digests(outdir), sort_keys=True))
    if len(digests) > 1:
        _log("  passes emitted different bytes")
        correct = False
    return attempted, failed, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    invoked = _monotonic()
    if not (ROOT / "src" / "toricsim" / "__init__.py").is_file():
        _log(f"no toricsim sources under {ROOT / 'src'}")
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # the first interpreter fills the bytecode cache and is not counted
    result, why = _spawn(args.workload, args.seed, work / "setup-warm",
                         args.trace, True, RUN_DEADLINE_S)
    if result is None:
        _log(f"set-up failed: {why}")
        return 1

    passes: list[tuple[Path, dict | None, str]] = []
    started = _monotonic()
    last = 0.0
    while not passes or (_monotonic() - started < args.seconds
                         and _monotonic() + last < invoked + RUN_DEADLINE_S):
        begin = _monotonic()
        pass_dir = work / f"pass-{len(passes)}"
        result, why = _spawn(args.workload, args.seed, pass_dir, args.trace,
                             False, invoked + RUN_DEADLINE_S - begin)
        last = _monotonic() - begin
        passes.append((pass_dir, result, why))
        if result is None:
            _log(f"{pass_dir.name}: {why}")
        else:
            _log(f"{pass_dir.name}: setup {result['setup_s']:.3f} s, "
                 f"run {result['run_s']:.3f} s, "
                 f"peak RSS {result['peak_rss_kib'] / 1024:.1f} MiB")

    measured = [r for _, r, _ in passes if r is not None]
    if not measured:
        _log("no pass completed")
        return 1
    setup = [r["setup_s"] for r in measured]
    while not args.trace and len(setup) < SETUP_SAMPLES:
        result, why = _spawn(args.workload, args.seed,
                             work / f"setup-{len(setup)}", args.trace, True,
                             RUN_DEADLINE_S)
        if result is None:
            _log(f"set-up failed: {why}")
            return 1
        setup.append(result["setup_s"])
    attempted, failed, correct = _judge(args.workload, passes)

    if args.trace:
        import spans
        samples = []
        for pass_dir, result, _ in passes:
            if result is None:
                continue
            outdir = pass_dir / "out"
            out_bytes = sum(p.stat().st_size for p in outdir.iterdir()
                            ) if outdir.is_dir() else 0
            samples.append(spans.layer_metrics(
                json.loads((pass_dir / "spans.json").read_text()), out_bytes))
        metrics = {name: {"value": statistics.median(s[name] for s in samples),
                          "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in measured),
                      "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(
                r["peak_rss_kib"] for r in measured) / 1024, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
