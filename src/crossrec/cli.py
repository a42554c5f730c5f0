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
from .errors import ConfigError, DataError, NumericError


def _resolve_config(args):
    # a flag's dest is the config key it overrides, parsed the same way
    kv = data.read_key_values(args.config, ConfigError) if args.config else {}
    kv.update({key: value for key, value in vars(args).items()
               if key in experiment.KEYS and value is not None})
    return experiment.config_from_mapping(kv)


def _check_flags(args, cfg):
    # config keys may serve several methods, and build-scenario too, so
    # only the flags are checked: --hops needs SSCDR, --lambda a
    # semi-supervised mapping, --phi the scenario's
    flags = vars(args)
    semi = [method for method, (_, mode) in experiment._PLAN.items()
            if mode == mapping.MODE_SEMI]
    for flag, takers in (("hops", [experiment.METHOD_SSCDR]),
                         ("lambda", semi)):
        if flags.get(flag) is not None and cfg.method not in takers:
            raise ConfigError(f"--{flag} applies to {' and '.join(takers)} "
                              f"only, not {cfg.method}")
    if flags.get("phi") is not None and cfg.scenario_dir:
        saved = data.load_meta(cfg.scenario_dir)[0].phi
        if cfg.phi != saved:
            raise ConfigError(f"--phi {cfg.phi:g} differs from the phi "
                              f"{saved:g} of scenario {cfg.scenario_dir}")


def _add_common(p, out_required=False):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", help="experiment seed")
    p.add_argument("--out", required=out_required,
                   help="output file or directory")


def _cmd_gen_synth(args):
    cfg = _resolve_config(args)
    if cfg.synth_users < 1:
        raise ConfigError("gen-synth needs synth.users > 0")
    source, target = experiment.generate_domains(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    data.write_interactions(os.path.join(cfg.out_dir, "source.tsv"), source)
    data.write_interactions(os.path.join(cfg.out_dir, "target.tsv"), target)
    print(f"wrote {source.n_interactions} source and "
          f"{target.n_interactions} target interactions to {cfg.out_dir}")
    return 0


def _cmd_build_scenario(args):
    cfg = _resolve_config(args)
    _check_flags(args, cfg)
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
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path:
            art[name] = load(path)
    return art


def _train_step(args, name):
    """Train the artifact ``name``, save to ``--out``."""
    cfg = _resolve_config(args)
    _check_flags(args, cfg)
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


def _cmd_eval(args):
    cfg = _resolve_config(args)
    _check_flags(args, cfg)
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


def _cmd_run(args):
    cfg = _resolve_config(args)
    _check_flags(args, cfg)
    report = experiment.run_experiment(cfg)
    print(report.format_table(title=f"{cfg.method} phi={report.phi:g}"))
    print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_export_vectors(args):
    cfg = _resolve_config(args)
    cfg.check_hops()
    scenario = data.load_scenario(args.scenario)
    art = _load_artifacts(args)
    users = scenario.test_users
    inferred = coldstart.cold_start_queries(
        art["source_space"], scenario.source, art["net"], cfg.hops, users)
    space = embed.EmbeddingSpace(users, (), inferred,
                                 np.zeros((0, art["net"].dim)),
                                 embed.KIND_INFERRED)
    embed.save_embeddings(space, args.out)
    print(f"exported {len(users)} inferred vectors (hops={cfg.hops})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crossrec",
        description="cross-domain cold-start recommendation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate synthetic domains")
    _add_common(p, out_required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("build-scenario", help="filter and split two domains")
    _add_common(p, out_required=True)
    p.add_argument("--source", help="source interactions tsv")
    p.add_argument("--target", help="target interactions tsv")
    p.add_argument("--phi", help="train-overlap fraction")
    p.set_defaults(func=_cmd_build_scenario)

    p = sub.add_parser("train-embed", help="train one embedding space")
    _add_common(p, out_required=True)
    p.add_argument("--scenario", required=True, help="scenario directory")
    p.add_argument("--method")
    p.add_argument("--domain", required=True,
                   choices=("source", "target", "unified"))
    p.set_defaults(func=lambda args: _train_step(args, f"{args.domain}_space"))

    p = sub.add_parser("train-map", help="train the cross-domain mapping")
    _add_common(p, out_required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--source-emb", required=True)
    p.add_argument("--target-emb", required=True)
    p.add_argument("--method")
    p.add_argument("--lambda", help="weight of the unsupervised term")
    p.set_defaults(func=lambda args: _train_step(args, "net"))

    p = sub.add_parser("eval", help="evaluate saved artifacts")
    _add_common(p, out_required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", required=True)
    for name in experiment.ARTIFACTS:
        p.add_argument(experiment.artifact_io(name)[1])
    p.add_argument("--hops")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full pipeline from one config")
    _add_common(p)
    p.add_argument("--method")
    p.add_argument("--phi")
    p.add_argument("--hops")
    p.add_argument("--lambda")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("export-vectors",
                       help="export inferred cold-start vectors")
    _add_common(p, out_required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--source-emb", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--hops")
    p.set_defaults(func=_cmd_export_vectors)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
