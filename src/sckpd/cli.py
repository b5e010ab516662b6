"""Command-line front end.

Subcommands: ``simulate``, ``fit``, ``summarize``, ``check-hyper``.  Every
run is described by a YAML config file and/or flags (flags win); flag
values are strings that ``RunConfig.from_dict`` types and checks as it does
config-file values.  Results go to stdout as JSON.  Every failure, a usage
error included, prints one error JSON line to stderr and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (MODES, PRESETS, RunConfig, check_hyper, fit, read_config_file,
                      simulate, strict_json, summarize_draws)

# (flag, RunConfig field) of every flag whose help gives the field's default
_FIELD_FLAGS = (("--seed", "seed"), ("--out", "output_dir"), ("--d1", "d1"), ("--d2", "d2"),
                ("--n-components", "n_components"), ("--n-obs", "n_obs"),
                ("--seasons", "n_seasons"), ("--cycles", "n_cycles"), ("--chains", "n_chains"),
                ("--warmup", "n_warmup"), ("--draws", "n_draws"), ("--leapfrog", "n_leapfrog"))


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so ``main`` reports them as it
    reports every other failure; subparsers are made of the same class."""

    def error(self, message):
        raise ValueError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--preset", help=f"one of {', '.join(sorted(PRESETS))}")
    p.add_argument("--mode", help=f"one of {', '.join(MODES)}; default: the verb's seasonal "
                                  "mode for more than one block, else its static one")
    p.add_argument("--input", dest="input_path",
                   help="the data CSV file, or a seasonal fit's directory of block files")
    fields = RunConfig.__dataclass_fields__
    for flag, key in _FIELD_FLAGS:
        p.add_argument(flag, dest=key, help=f"default {fields[key].default}")


def _build_config(args: argparse.Namespace, family_prefix: str) -> RunConfig:
    raw = read_config_file(args.config) if args.config else {}
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "func") and v is not None}
    raw.update(overrides)
    return RunConfig.from_dict(raw, family=family_prefix)


def _cmd_simulate(args) -> dict:
    config = _build_config(args, "simulate")
    _, truth = simulate(config)
    return {"written": config.output_dir, "truth": truth}


def _cmd_fit(args) -> dict:
    config = _build_config(args, "fit")
    return fit(config)


def _cmd_summarize(args) -> dict:
    return summarize_draws(args.draws_file, args.truth)


def _cmd_check_hyper(args) -> dict:
    config = _build_config(args, "fit")
    return check_hyper(config)


def main(argv=None) -> int:
    parser = _Parser(
        prog="sckpd",
        description="Simulate and fit Kronecker-sum Cholesky precision models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a dataset and ground truth", description=(
        "Draw a dataset and write its block CSVs and truth.json.  The truth has one "
        "component per omega_weights entry, a list that only a config file or a preset "
        "sets; --n-components is the fit's count and does not change the draw.  An unset "
        "Wishart scale (wishart_scale1, wishart_scale2) is 0.5 on every entry."))
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="run inference on a dataset")
    _add_common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_sum = sub.add_parser("summarize", help="summarize a draws table", description=(
        "Report a draws table as fit reports the table it writes.  The table needs the "
        "chain, draw, accept, divergent and energy columns, and every chain the same "
        "number of rows, at least 4.  theta and the weights given the lowers enter only the "
        "prior, and the likelihood is invariant along a (K-1)^2 + 1-dimensional group of "
        "moves of the lowers, so the theta and omega*_sorted_* intervals mostly reflect "
        "the prior."))
    p_sum.add_argument("draws_file")
    p_sum.add_argument("--truth", help="ground-truth JSON for a coverage report")
    p_sum.set_defaults(func=_cmd_summarize)

    p_hyp = sub.add_parser(
        "check-hyper", help="print solved hyperparameters and targets, reading the "
                            "blocks as fit does",
        description="Print the prior targets and solved hyperparameters a fit of the same "
                    "data reports.  The blocks are read as fit reads them, and what fit "
                    "refuses is refused here too.")
    _add_common(p_hyp)
    p_hyp.set_defaults(func=_cmd_check_hyper)

    try:
        args = parser.parse_args(argv)
        # strict JSON: a NaN or infinite result is a failure, not a bare NaN token
        text = strict_json(args.func(args))
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, default=float)
        sys.stderr.write("\n")
        return 2
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
