"""Run one ``crossrec`` CLI command in this process with per-layer spans.

Usage::

    python3 bench/tracer.py SPANS_JSON INVOCATION_ID -- <crossrec args>

Before the command runs, the public functions of each crossrec layer are
wrapped where their callers look them up (module attributes, the names
``crossrec.evaluation`` imports from ``crossrec.data``, and the methods of
``crossrec.optim.Adam`` on the class).  Each wrapper records a span: name,
start, end and parent span, on the ``time.perf_counter`` clock, which on
Linux is the system-wide monotonic clock, so the parent process can compare
spans with the wall time it measured around this process.  Spans and counts
stay in memory and are written to SPANS_JSON after the command returns.
Nothing under ``src/`` is edited.

The process exits with the command's own exit code.
"""

import functools
import json
import os
import sys
import time

_T0 = time.perf_counter()


class Tracer:
    """Span stack, the recorded spans and named counts of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span; ``after(result, args, kwargs)`` runs
        once the span has closed, to record counts outside its time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def count_calls(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(key, 1)
            return fn(*args, **kwargs)
        return counted


def install(tracer):
    """Wrap every layer boundary the benchmark reports on."""
    from crossrec import (cli, coldstart, data, embed, evaluation,
                          experiment, mapping, optim)
    t = tracer

    def raw_load(result, args, kwargs):
        # loads nested in load_scenario read the scenario, not raw input
        parent = t.stack[-1] if t.stack else -1
        if parent < 0 or t.spans[parent][0] != "data.load_scenario":
            t.add("data.pairs_in", result.n_interactions)

    def kept(result, args, kwargs):
        t.add("data.pairs_kept", result.source.n_interactions
              + result.target.n_interactions + 2 * len(result.heldout))

    def trained(result, args, kwargs):
        interactions, cfg = args[0], args[1]
        t.add("embed.pair_epochs", interactions.n_interactions * cfg.epochs)

    def saved_space(result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        t.add("embed.artifact_bytes", os.path.getsize(path))

    def linked(result, args, kwargs):
        source_space, target_space, scenario = args[:3]
        t.add("mapping.linked_users", sum(
            1 for u in scenario.train_overlap_users
            if source_space.has_user(u) and target_space.has_user(u)))

    def ranked(result, args, kwargs):
        t.add("evaluation.rankings", 1)
        t.add("evaluation.candidates", len(args[0]))

    for mod, attr, name, after in (
            (data, "load_interactions", "data.load_interactions", raw_load),
            (data, "build_scenario", "data.build_scenario", kept),
            (data, "save_scenario", "data.save_scenario", None),
            (data, "load_scenario", "data.load_scenario", None),
            (evaluation, "sample_negatives", "data.sample_negatives", None),
            (embed, "train_embeddings", "embed.train", trained),
            (embed, "save_embeddings", "embed.save", saved_space),
            (embed, "load_embeddings", "embed.load", None),
            (mapping, "train_mapping", "mapping.train", linked),
            (mapping, "mapping_loss_and_grads", "mapping.loss_grad", None),
            (mapping, "save_mapping", "mapping.save", None),
            (mapping, "load_mapping", "mapping.load", None),
            (coldstart, "aggregate_hops", "coldstart.aggregate", None),
            (coldstart, "infer_cold_start", "coldstart.infer", None),
            (evaluation, "evaluate", "evaluation.evaluate", None),
            (evaluation, "rank_of_test_item", "evaluation.rank", ranked),
            (experiment, "run_experiment", "experiment.run", None),
            (cli, "main", "cli.main", None)):
        setattr(mod, attr, t.wrap(name, getattr(mod, attr), after))

    make_scorer = experiment.make_scorer

    @functools.wraps(make_scorer)
    def traced_make_scorer(*args, **kwargs):
        return t.wrap("evaluation.score", make_scorer(*args, **kwargs))

    experiment.make_scorer = t.wrap("experiment.make_scorer",
                                    traced_make_scorer)
    optim.Adam.step_rows = t.wrap("optim.step_rows", optim.Adam.step_rows)
    optim.Adam.step = t.wrap("optim.step", optim.Adam.step)
    mapping._sample_excluding = t.count_calls("mapping.negative_draws",
                                              mapping._sample_excluding)
    return cli


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON INVOCATION_ID -- <crossrec args>",
              file=sys.stderr)
        return 2
    out_path, invocation, command = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(command)
    t_end = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"invocation": invocation, "start": _T0, "end": t_end,
                   "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
