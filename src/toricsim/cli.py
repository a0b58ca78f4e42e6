"""Command-line entry point: ``toricsim <subcommand> [flags]``.

Every scenario flag mirrors a :class:`~toricsim.harness.ScenarioConfig`
field; ``--config FILE`` loads a key = value INI first and explicit flags
override it.  The ``TORICSIM_OUTDIR`` environment variable supplies the
output directory when neither a flag nor the config file sets one.

Exit codes: 0 when every scenario assertion passes, 1 when any fails,
2 on configuration errors (enumerated before any compute starts).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import harness

COMMAND_KINDS = {
    "sequence-scan": "sequence-order-scan",
    "spectrum": "spectrum",
    "fidelity-scan": "fidelity-scan",
    "thermalize": "thermalize",
    "cool": "cool-with-noise",
    "pump": "pump",
    "eliminate": "eliminate",
}

_COMMAND_HELP = {
    "sequence-scan": "effective-Hamiltonian coefficients and order fits",
    "spectrum": "low-lying spectrum across the coupling grid",
    "fidelity-scan": "ground-manifold fidelity across the coupling grid",
    "thermalize": "relaxation to the engineered fixed point",
    "cool": "steady-state cooling against depolarizing noise",
    "pump": "three-level ancilla pumping schedule",
    "eliminate": "effective-rate scaling of the damped-ancilla probe",
    "describe": "print every configuration field with its default",
    "validate": "check a configuration file without running it",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    # the config flags, added once and shared by the subcommands that take them
    flags = argparse.ArgumentParser(add_help=False)
    for name, (_, _, help_text) in harness.FIELD_SPEC.items():
        if name != "kind":
            flags.add_argument("--" + name.replace("_", "-"), dest=name,
                               default=None, metavar="VALUE", help=help_text)
    parser = argparse.ArgumentParser(
        prog="toricsim",
        description="Stroboscopic-synthesis and engineered-dissipation "
                    "scenarios for the stabilizer code on a torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: a removed flag must not resolve to a longer one
    # (--phi to --phi-grid)
    for command in COMMAND_KINDS:
        p = sub.add_parser(command, help=_COMMAND_HELP[command],
                           parents=[flags], allow_abbrev=False)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="INI configuration file (flags override it)")
    sub.add_parser("describe", help=_COMMAND_HELP["describe"])
    v = sub.add_parser("validate", help=_COMMAND_HELP["validate"],
                       parents=[flags], allow_abbrev=False)
    v.add_argument("--config", required=True, metavar="FILE",
                   help="INI configuration file to check")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    out = {}
    problems = []
    for name, (_, kind, _) in harness.FIELD_SPEC.items():
        raw = getattr(args, name, None)
        if raw is None:
            continue
        try:
            out[name] = harness.parse_value(kind, raw)
        except ValueError:
            problems.append(f"flag --{name.replace('_', '-')}: "
                            f"cannot parse {raw!r}")
    if problems:
        raise harness.ConfigError(problems)
    return out


def _build_config(args: argparse.Namespace,
                  kind: str | None) -> harness.ScenarioConfig:
    overrides = _overrides(args)
    if kind is not None:
        overrides["kind"] = kind
    if args.config is not None:
        return harness.ScenarioConfig.from_file(args.config, **overrides)
    if "kind" not in overrides:
        raise harness.ConfigError(["[scenario] kind is required"])
    return harness.ScenarioConfig(**overrides)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "describe":
            print(harness.describe_defaults())
            return 0
        if args.command == "validate":
            cfg = _build_config(args, kind=None)
            problems = cfg.validate()
            if problems:
                for problem in problems:
                    print(f"invalid: {problem}", file=sys.stderr)
                return 2
            print(f"configuration valid: {cfg.kind} "
                  f"(hash {cfg.config_hash()[:12]})")
            return 0
        record = harness.run(_build_config(args, COMMAND_KINDS[args.command]))
    except harness.ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    for line in record.summary_lines():
        print(line)
    for path in record.outputs:
        print(f"wrote {path}")
    return 0 if record.ok else 1


if __name__ == "__main__":
    sys.exit(main())
