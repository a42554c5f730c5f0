"""Command-line entry point.

Every subcommand reads an optional flat ``key=value`` config file; a flag
overrides the config key of the same name.  Exit codes: 0 on success, 2 for
configuration problems, 3 for data problems, 4 for numeric failures.

Subcommands::

    gen-synth        write synthetic source/target interaction files
    build-scenario   filter two domains and carve the evaluation split
    train-embed      fit one embedding space and save it
    train-map        fit the cross-domain mapping and save it
    eval             evaluate saved artifacts, write a report
    run              full pipeline: scenario, training, evaluation
    export-vectors   write inferred target-space vectors for test users

:func:`main` checks the flags of every command by one rule: an optional
flag of a command that takes ``--method`` needs a method that reads it.

All randomness derives from the single ``--seed`` through the fixed stream
slots of :mod:`crossrec.experiment`, and each step trains what ``method``
trains, so ``run`` and an equivalent chain of the step subcommands produce
identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import coldstart, data, embed, evaluation, experiment, mapping
from .errors import ConfigError, CrossRecError, NumericError


def _resolve_config(args):
    # a flag's dest is the config key it overrides, parsed the same way
    kv = data.read_key_values(args.config, ConfigError) if args.config else {}
    kv.update({key: value for key, value in vars(args).items()
               if key in experiment.KEYS and value is not None})
    return experiment.config_from_mapping(kv)


def _check_flags(args, cfg):
    # a config file may serve several methods, and build-scenario too, so
    # only flags are checked
    if cfg.method not in experiment.METHODS:
        cfg.validate()  # names the unknown method before any flag
    flags = vars(args)
    optional = _COMMANDS[args.command][3].split() if "method" in flags else ()
    for flag, takers in _TAKERS.items():
        if (flag in optional and flags[flag] is not None
                and cfg.method not in takers):
            raise ConfigError(f"--{flag} applies to {' and '.join(takers)} "
                              f"only, not {cfg.method}")
    if flags.get("phi") is not None and cfg.scenario_dir:
        saved = data.load_meta(cfg.scenario_dir)[0].phi
        if cfg.phi != saved:
            raise ConfigError(f"--phi {cfg.phi:g} differs from the phi "
                              f"{saved:g} of scenario {cfg.scenario_dir}")


def _cmd_gen_synth(args, cfg):
    if cfg.synth_users < 1:
        raise ConfigError("gen-synth needs synth.users > 0")
    source, target = experiment.generate_domains(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    data.write_interactions(os.path.join(cfg.out_dir, "source.tsv"), source)
    data.write_interactions(os.path.join(cfg.out_dir, "target.tsv"), target)
    print(f"wrote {source.n_interactions} source and "
          f"{target.n_interactions} target interactions to {cfg.out_dir}")
    return 0


def _cmd_build_scenario(args, cfg):
    cfg.validate()
    scenario = experiment.prepare_scenario(cfg)
    data.save_scenario(scenario, cfg.out_dir)
    print(f"scenario: {scenario.source.n_users} source users, "
          f"{scenario.target.n_users} target training users, "
          f"{len(scenario.overlap_users)} overlapping, "
          f"{len(scenario.test_users)} test, "
          f"{len(scenario.train_overlap_users)} train-overlap "
          f"(phi={scenario.split.phi:g})")
    return 0


def _load_artifacts(args):
    """The artifacts the command's flags name, by name, in flag order."""
    art = {}
    for name in experiment.ARTIFACTS:
        _, flag, _, load = experiment.artifact_io(name)
        path = vars(args).get(flag[2:])
        if path:
            art[name] = load(path)
    return art


def _train_step(args, cfg):
    """Train the mapping or the ``--domain`` space, save to ``--out``."""
    name = "net" if args.command == "train-map" else f"{args.domain}_space"
    cfg.validate()
    scenario = data.load_scenario(args.scenario)
    history = []
    artifact = experiment.train_artifact(name, scenario, cfg,
                                         _load_artifacts(args),
                                         loss_history=history)
    experiment.artifact_io(name)[2](artifact, args.out)
    print(f"trained {name} for {cfg.method} (K={artifact.dim}); "
          f"final epoch loss {history[-1]:.6f}")
    return 0


def _cmd_eval(args, cfg):
    cfg.validate()
    scenario = data.load_scenario(args.scenario)
    # a too-small negative pool fails before any artifact is read
    evaluation.heldout_rows(scenario, cfg.eval_negatives)
    report, text = experiment.evaluate_method(scenario, cfg,
                                              _load_artifacts(args))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(report.format_table(title=f"{cfg.method} phi={report.phi:g}"))
    return 0


def _cmd_run(args, cfg):
    report = experiment.run_experiment(cfg)
    print(report.format_table(title=f"{cfg.method} phi={report.phi:g}"))
    print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_export_vectors(args, cfg):
    cfg.check_hops()
    scenario = data.load_scenario(args.scenario)
    art = _load_artifacts(args)
    experiment.check_dims(art)  # of any method, so no kind rule
    users = scenario.test_users
    inferred = coldstart.cold_start_queries(
        art["source_space"], scenario.source, art["net"], cfg.hops, users)
    space = embed.EmbeddingSpace(users, (), inferred,
                                 np.zeros((0, art["net"].dim)),
                                 embed.KIND_INFERRED)
    embed.save_embeddings(space, args.out)
    print(f"exported {len(users)} inferred vectors (hops={cfg.hops})")
    return 0


# each flag's help text, and the choices of --domain
_HELP = {
    "config": "flat key=value config file",
    "seed": "experiment seed",
    "out": "output file or directory",
    "source": "source interactions tsv",
    "target": "target interactions tsv",
    "phi": "train-overlap fraction",
    "scenario": "scenario directory",
    "domain": "domain of the space to train",
    "method": f"one of {', '.join(experiment.METHODS)}",
    "hops": "aggregation hops before the mapping",
    "lambda": "weight of the unsupervised term",
    **{experiment.artifact_io(name)[1][2:]:
       f"saved {experiment.artifact_io(name)[0]}"
       for name in experiment.ARTIFACTS},
}
_CHOICES = {"domain": ("source", "target", "unified")}

# command -> (help, handler, required flags, optional flags); every command
# also takes --config and --seed
_COMMANDS = {
    "gen-synth": ("generate synthetic domains", _cmd_gen_synth, "out", ""),
    "build-scenario": ("filter and split two domains", _cmd_build_scenario,
                       "out", "source target phi"),
    "train-embed": ("train one embedding space", _train_step,
                    "out scenario domain", "method"),
    "train-map": ("train the cross-domain mapping", _train_step,
                  "out scenario source-emb target-emb", "method lambda"),
    "eval": ("evaluate saved artifacts", _cmd_eval, "out scenario method",
             "unified-emb source-emb target-emb mapping hops"),
    "run": ("full pipeline from one config", _cmd_run, "",
            "out method phi hops lambda"),
    "export-vectors": ("export inferred cold-start vectors",
                       _cmd_export_vectors, "out scenario source-emb mapping",
                       "hops"),
}

# each method-bound flag -> the methods that read it: SSCDR aggregates, a
# semi-supervised mapping weighs lambda, a method scores with its artifacts
_TAKERS = {
    "hops": [experiment.METHOD_SSCDR],
    "lambda": [method for method, (_, mode) in experiment._PLAN.items()
               if mode == mapping.MODE_SEMI],
    **{experiment.artifact_io(name)[1][2:]:
       [method for method in experiment.METHODS
        if name in experiment.required_artifacts(method)]
       for name in experiment.ARTIFACTS},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crossrec",
        description="cross-domain cold-start recommendation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, func, required, optional) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(func=func)
        required = required.split()
        for flag in ["config", "seed", *required, *optional.split()]:
            p.add_argument(f"--{flag}", dest=flag, help=_HELP[flag],
                           required=flag in required,
                           choices=_CHOICES.get(flag))
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    try:
        cfg = _resolve_config(args)
        _check_flags(args, cfg)
        return args.func(args, cfg)
    except (CrossRecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, ConfigError)
                else 4 if isinstance(exc, NumericError) else 3)


if __name__ == "__main__":
    sys.exit(main())
