"""One benchmark pass in a fresh interpreter, as one CLI session would run.

    python3 perfbench/worker.py WORKLOAD SEED PASS_DIR TRACE [--setup-only]

Imports toricsim, builds and validates the workload's configs, stamps the
moment the first scenario could start (CLOCK_MONOTONIC, comparable with
the parent's spawn time), then runs each scenario through
``toricsim.cli.main`` in process, one at a time.  Writes
``PASS_DIR/result.json``: the ready stamp, the pass wall time, peak RSS and
each call's exit code; with TRACE = 1 also ``PASS_DIR/spans.json``.
Scenario output goes to ``PASS_DIR/out``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    workload, seed, pass_dir, trace = argv[:4]
    seed = int(seed)
    pass_dir = Path(pass_dir)
    outdir = str(pass_dir / "out")
    calls = workloads.WORKLOADS[workload]

    from toricsim import cli, harness
    for c in calls:
        harness.ScenarioConfig(**c.config_fields(seed, outdir)).require_valid()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result: dict = {"ready": ready, "toricsim": harness.__file__}
    if "--setup-only" in argv:
        (pass_dir / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    outcomes = []
    start = time.perf_counter()
    for c in calls:
        try:
            code = cli.main(c.argv(seed, outdir))
            error = None
        except SystemExit as exc:  # argparse rejects its input this way
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception:
            code, error = None, traceback.format_exc()
        outcomes.append({"command": c.command, "kind": c.kind,
                         "exit_code": code, "error": error})
    result["run_s"] = time.perf_counter() - start
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["calls"] = outcomes
    if tracer is not None:
        tracer.dump(pass_dir / "spans.json")
    (pass_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
