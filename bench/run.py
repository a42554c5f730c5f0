"""crossrec benchmark: end-to-end CLI timings and a per-layer trace.

Usage, from the root of a crossrec source tree::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record [--workload NAME ...]

The first form generates the workload's ``user<TAB>item`` inputs from the
seed, checks them against the hashes in ``bench/expected.json`` and then

* with ``--trace 0`` drives the real ``crossrec`` CLI as child processes,
  one at a time (a closed loop with one client), for ``--seconds`` seconds:
  ``build-scenario``, ``run`` and ``eval`` on the saved artifacts.  It
  reports the end-to-end metrics as medians;
* with ``--trace 1`` runs ``crossrec run`` once untraced and once through
  ``bench/tracer.py``, which wraps every layer's public functions, and
  reports the per-layer metrics.

Every CLI invocation's output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The second form reruns every input variant of the named
workloads (all by default) and rewrites ``bench/expected.json``.

See ``bench/README.md`` for the metric, layer and workload map.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

# a seed selects one of this many recorded input variants
VARIANTS = 16
CHILD_TIMEOUT_S = 150.0
# allowed gap between the traced process's wall time and its spans
SELF_CHECK_ABS_S = 0.5
SELF_CHECK_REL = 0.05

_BENCH_SYNTH = dict(users=2000, items=1500, k_true=8, overlap=0.3,
                    density=0.004)
_BENCH_CONFIG = {
    "phi": "1.0", "hops": "2", "lambda": "4.0",
    "min_overlap": "3", "min_other": "3",
    "embed.dim": "16", "embed.epochs": "100", "embed.lr": "0.01",
    "map.epochs": "200", "map.lr": "0.002", "map.batch": "64",
    "eval.cutoffs": "10", "eval.repeats": "5", "eval.negatives": "999",
}

# set-up and serving samples spread between the runs: the machine's speed
# drifts over seconds, and spread-out samples give steadier medians
_BENCH_STEPS = ("build", "run", "build", "eval", "build", "eval")


@dataclass(frozen=True)
class Workload:
    method: str
    synth: dict
    config: dict
    # one iteration of the end-to-end loop: "build" is build-scenario,
    # "eval" evaluates the artifacts of the iteration's "run"
    steps: tuple


WORKLOADS = {
    "bench-sscdr": Workload("SSCDR", _BENCH_SYNTH, _BENCH_CONFIG,
                            _BENCH_STEPS),
    "bench-emcdr-bpr": Workload("EMCDR-BPR", _BENCH_SYNTH, _BENCH_CONFIG,
                                _BENCH_STEPS),
    "scale-itempop": Workload(
        "ITEMPOP",
        dict(users=2000, items=15000, k_true=8, overlap=0.3,
             density=0.004),
        {"phi": "1.0", "min_overlap": "3", "min_other": "3",
         "eval.cutoffs": "10", "eval.repeats": "1",
         "eval.negatives": "999"},
        ("build", "run", "eval", "build", "eval")),
    # the criterion-7 configuration; for the benchmark's own smoke test
    "smoke": Workload(
        "SSCDR",
        dict(users=60, items=50, k_true=4, overlap=0.6, density=0.08),
        {"phi": "0.5", "hops": "2", "min_overlap": "2", "min_other": "2",
         "embed.dim": "8", "embed.epochs": "12", "embed.lr": "0.01",
         "embed.batch": "256", "map.epochs": "8", "map.lr": "0.01",
         "map.batch": "16", "eval.cutoffs": "5,10", "eval.repeats": "2",
         "eval.negatives": "30"},
        _BENCH_STEPS),
}

# artifacts ``eval`` needs, per method: (flag, file in the run directory)
_EVAL_ARTIFACTS = {
    "ITEMPOP": (),
    "EMCDR-BPR": (("--source-emb", "source_embeddings.txt"),
                  ("--target-emb", "target_embeddings.txt"),
                  ("--mapping", "mapping.txt")),
}
_EVAL_ARTIFACTS["SSCDR"] = _EVAL_ARTIFACTS["EMCDR-BPR"]

END_TO_END = (("run_s", "s"), ("setup_s", "s"),
              ("serve_users_per_s", "rankings/s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("data.load_interactions_s", "s"), ("data.build_scenario_s", "s"),
    ("data.save_scenario_s", "s"), ("data.load_scenario_s", "s"),
    ("data.pairs_in", "count"), ("data.pairs_kept", "count"),
    ("data.keep_ratio", "ratio"), ("data.sample_negatives_s", "s"),
    ("data.sample_negatives_calls", "count"),
    ("embed.source.train_s", "s"), ("embed.target.train_s", "s"),
    ("embed.pairs_per_s", "pairs/s"), ("embed.self_s", "s"),
    ("embed.save_s", "s"), ("embed.load_s", "s"),
    ("embed.artifact_bytes", "bytes"),
    ("optim.step_rows_s", "s"), ("optim.step_rows_calls", "count"),
    ("optim.step_s", "s"), ("optim.step_calls", "count"),
    ("mapping.train_s", "s"), ("mapping.loss_grad_s", "s"),
    ("mapping.loss_grad_calls", "count"), ("mapping.self_s", "s"),
    ("mapping.linked_users", "count"), ("mapping.negative_draws", "count"),
    ("coldstart.aggregate_s", "s"), ("coldstart.infer_s", "s"),
    ("coldstart.infer_calls", "count"),
    ("evaluation.evaluate_s", "s"), ("evaluation.score_s", "s"),
    ("evaluation.rank_s", "s"), ("evaluation.self_s", "s"),
    ("evaluation.rankings", "count"), ("evaluation.candidates", "count"),
    ("experiment.make_scorer_s", "s"), ("experiment.self_s", "s"),
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("synth.generate_s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_s", "s"),
)

_ALWAYS = {"data.", "evaluation.", "experiment.", "cli.", "synth."}
_TRAINED = {"embed.", "optim.", "mapping.train_s", "mapping.loss_grad",
            "mapping.self_s", "mapping.linked_users", "coldstart.infer"}
_SSCDR_ONLY = {"coldstart.aggregate_s", "mapping.negative_draws"}


def exercised(method, metric):
    """Whether ``method`` must give ``metric`` a non-zero value; None for
    the trace's own metrics, which carry no such rule."""
    if metric.startswith("trace."):
        return None
    if any(metric.startswith(p) for p in _SSCDR_ONLY):
        return method == "SSCDR"
    if any(metric.startswith(p) for p in _TRAINED):
        return method != "ITEMPOP"
    return any(metric.startswith(p) for p in _ALWAYS)


class WorkloadError(Exception):
    """The workload cannot be run as recorded: no result is printed."""


@dataclass
class Child:
    code: int
    wall: float
    rss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        """Count one CLI invocation; ``ok`` is its exit and output check."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, log_path):
    """Run one child to completion; wall time and peak RSS from outside."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, end - start, usage.ru_maxrss / 1024.0)


def cli(*args):
    return [sys.executable, "-m", "crossrec.cli", *args]


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0" + sha256_file(
            os.path.join(path, name)).encode())
    return h.hexdigest()


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def drop_artifacts(work):
    """Keep the logs, configs, spans and result; drop inputs and outputs."""
    for name in ("scenario", "run", "run_traced"):
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    for name in ("source.tsv", "target.tsv", "eval_report.tsv",
                 "spans.json"):
        if os.path.exists(os.path.join(work, name)):
            os.remove(os.path.join(work, name))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- inputs -------------------------------------------------------------

def make_inputs(workload, variant, work):
    """Write the variant's source/target TSVs; (seconds, {file: sha256})."""
    from crossrec import data, synth
    s = workload.synth
    start = time.perf_counter()
    source, target = synth.generate_synthetic(
        s["users"], s["items"], s["items"], s["k_true"], s["overlap"],
        s["density"], variant)
    data.write_interactions(os.path.join(work, "source.tsv"), source)
    data.write_interactions(os.path.join(work, "target.tsv"), target)
    seconds = time.perf_counter() - start
    return seconds, {name: sha256_file(os.path.join(work, name))
                     for name in ("source.tsv", "target.tsv")}


def write_configs(workload, variant, work):
    """``run.cfg`` names the input TSVs; ``eval.cfg`` is the same config
    without them, because a command takes exactly one data source and
    ``eval`` reads the saved scenario."""
    kv = {"seed": str(variant), **workload.config}
    eval_cfg = os.path.join(work, "eval.cfg")
    run_cfg = os.path.join(work, "run.cfg")
    body = "".join(f"{k} = {v}\n" for k, v in kv.items())
    with open(eval_cfg, "w", encoding="utf-8") as fh:
        fh.write(body)
    with open(run_cfg, "w", encoding="utf-8") as fh:
        fh.write(body + f"source = {os.path.join(work, 'source.tsv')}\n"
                 f"target = {os.path.join(work, 'target.tsv')}\n")
    return run_cfg, eval_cfg


def load_expected():
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def prepare(name, seed, work):
    """Generate and verify inputs; returns (variant, configs, gen s,
    expected report sha256)."""
    workload = WORKLOADS[name]
    variant = seed % VARIANTS
    gen_s, hashes = make_inputs(workload, variant, work)
    recorded = load_expected().get(name, {}).get(str(variant))
    if recorded is None:
        raise WorkloadError(f"no recorded hashes for {name} variant "
                            f"{variant}; run bench/run.py --record")
    for fname, digest in hashes.items():
        if recorded[fname] != digest:
            raise WorkloadError(
                f"{name} variant {variant}: generated {fname} has sha256 "
                f"{digest}, recorded {recorded[fname]}; the input "
                f"generator changed")
    run_cfg, eval_cfg = write_configs(workload, variant, work)
    return variant, run_cfg, eval_cfg, gen_s, recorded["report.tsv"]


# -- untraced end-to-end loop ---------------------------------------------

def run_command(workload, run_cfg, out):
    return cli("run", "--config", run_cfg, "--method", workload.method,
               "--out", out)


def end_to_end(name, seed, work, seconds, tally):
    workload = WORKLOADS[name]
    variant, run_cfg, eval_cfg, gen_s, want = prepare(name, seed, work)
    logs = os.path.join(work, "log")
    os.makedirs(logs, exist_ok=True)
    # compile bytecode and warm the file cache before timing
    spawn([sys.executable, "-c", "import crossrec.cli"],
          os.path.join(logs, "warmup.log"))
    scen = os.path.join(work, "scenario")
    run_dir = os.path.join(work, "run")
    run_scen = os.path.join(run_dir, "scenario")
    eval_out = os.path.join(work, "eval_report.tsv")
    flags = [x for flag, fname in _EVAL_ARTIFACTS[workload.method]
             for x in (flag, os.path.join(run_dir, fname))]
    repeats = int(workload.config["eval.repeats"])
    samples = {m: [] for m, _ in END_TO_END}
    begin = time.perf_counter()
    iteration = 0
    # start another iteration while it should end within half an
    # iteration of the deadline, so a run lasts about ``seconds``
    while iteration == 0 or (time.perf_counter() - begin) \
            * (iteration + 0.5) / iteration <= seconds:
        iteration += 1
        built = []
        report = users = None
        for k, step in enumerate(workload.steps):
            log = os.path.join(logs, f"{iteration}-{k}-{step}.log")
            if step == "build":
                shutil.rmtree(scen, ignore_errors=True)
                c = spawn(cli("build-scenario", "--config", run_cfg,
                              "--out", scen), log)
                built.append((k, c, sha256_dir(scen) if c.code == 0
                              else None))
                if c.code == 0:
                    samples["setup_s"].append(c.wall)
            elif step == "run":
                fresh_dir(run_dir)
                c = spawn(run_command(workload, run_cfg, run_dir), log)
                report = read_bytes(os.path.join(run_dir, "report.tsv"))
                got = hashlib.sha256(report).hexdigest() if report else None
                tally.check(c.code == 0 and got == want,
                            f"run {iteration}.{k}: exit {c.code}, report "
                            f"sha256 {got}, recorded {want}")
                if c.code == 0:
                    samples["run_s"].append(c.wall)
                    samples["peak_rss_mb"].append(c.rss_mb)
                    with open(os.path.join(run_scen, "test.tsv"),
                              "rb") as fh:
                        users = sum(1 for line in fh if line.strip())
            else:
                if os.path.exists(eval_out):
                    os.remove(eval_out)
                c = spawn(cli("eval", "--config", eval_cfg, "--scenario",
                              run_scen, "--method", workload.method,
                              *flags, "--out", eval_out), log)
                ok = (c.code == 0 and report is not None
                      and read_bytes(eval_out) == report)
                tally.check(ok, f"eval {iteration}.{k}: exit {c.code}, "
                                f"report differs from the run's")
                if ok:
                    samples["serve_users_per_s"].append(
                        users * repeats / c.wall)
        scen_digest = sha256_dir(run_scen) if report is not None else None
        for k, c, digest in built:
            tally.check(c.code == 0 and digest == scen_digest,
                        f"build-scenario {iteration}.{k}: exit {c.code}, "
                        f"output differs from the run's scenario")
    elapsed = time.perf_counter() - begin
    info = {"variant": variant, "iterations": iteration,
            "measured_s": elapsed, "synth.generate_s": gen_s,
            "samples": samples}
    return samples, info


# -- traced run ------------------------------------------------------------

def span_metrics(trace, wall):
    """Per-layer metrics from one traced process, its self-check problems
    (empty when the trace is consistent), the layer shares of ``wall`` and
    the part of ``wall`` no span accounts for."""
    spans = trace["spans"]
    counts = trace["counts"]
    child_sum = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    dur, self_s, calls = {}, {}, {}
    problems = []
    for k, (name, start, end, parent) in enumerate(spans):
        d = end - start
        own = d - child_sum[k]
        if own < -1e-6:
            problems.append(f"span {name} has negative self time {own:.6f}")
        dur[name] = dur.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    def total(name):
        return dur.get(name, 0.0)

    trains = [end - start for name, start, end, _ in spans
              if name == "embed.train"]
    raw_loads = sum(end - start for name, start, end, parent in spans
                    if name == "data.load_interactions"
                    and (parent < 0 or spans[parent][0]
                         != "data.load_scenario"))
    mains = [k for k, s in enumerate(spans) if s[0] == "cli.main"]
    top = sum(end - start for _, start, end, parent in spans
              if parent in mains)
    inproc = trace["end"] - trace["start"]
    pairs_in = counts.get("data.pairs_in", 0)
    pairs_kept = counts.get("data.pairs_kept", 0)
    m = {
        "data.load_interactions_s": raw_loads,
        "data.build_scenario_s": total("data.build_scenario"),
        "data.save_scenario_s": total("data.save_scenario"),
        "data.load_scenario_s": total("data.load_scenario"),
        "data.pairs_in": pairs_in,
        "data.pairs_kept": pairs_kept,
        "data.keep_ratio": pairs_kept / pairs_in if pairs_in else 0.0,
        "data.sample_negatives_s": total("data.sample_negatives"),
        "data.sample_negatives_calls": calls.get("data.sample_negatives", 0),
        "embed.source.train_s": trains[0] if trains else 0.0,
        "embed.target.train_s": trains[1] if len(trains) > 1 else 0.0,
        "embed.pairs_per_s": (counts.get("embed.pair_epochs", 0)
                              / total("embed.train")
                              if trains else 0.0),
        "embed.self_s": self_s.get("embed.train", 0.0),
        "embed.save_s": total("embed.save"),
        "embed.load_s": total("embed.load"),
        "embed.artifact_bytes": counts.get("embed.artifact_bytes", 0),
        "optim.step_rows_s": total("optim.step_rows"),
        "optim.step_rows_calls": calls.get("optim.step_rows", 0),
        "optim.step_s": total("optim.step"),
        "optim.step_calls": calls.get("optim.step", 0),
        "mapping.train_s": total("mapping.train"),
        "mapping.loss_grad_s": total("mapping.loss_grad"),
        "mapping.loss_grad_calls": calls.get("mapping.loss_grad", 0),
        "mapping.self_s": self_s.get("mapping.train", 0.0),
        "mapping.linked_users": counts.get("mapping.linked_users", 0),
        "mapping.negative_draws": counts.get("mapping.negative_draws", 0),
        "coldstart.aggregate_s": total("coldstart.aggregate"),
        "coldstart.infer_s": total("coldstart.infer"),
        "coldstart.infer_calls": calls.get("coldstart.infer", 0),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.score_s": total("evaluation.score"),
        "evaluation.rank_s": total("evaluation.rank"),
        "evaluation.self_s": self_s.get("evaluation.evaluate", 0.0),
        "evaluation.rankings": counts.get("evaluation.rankings", 0),
        "evaluation.candidates": counts.get("evaluation.candidates", 0),
        "experiment.make_scorer_s": total("experiment.make_scorer"),
        "experiment.self_s": self_s.get("experiment.run", 0.0),
        "cli.self_s": inproc - top,
    }
    # the spans directly under the command, the command's own time and the
    # CLI's own time add up to the in-process time; what remains of the
    # outside wall time is interpreter start-up and exit
    runs = [k for k, s in enumerate(spans) if s[0] == "experiment.run"]
    layer_top = sum(end - start for _, start, end, parent in spans
                    if parent in runs)
    accounted = layer_top + m["experiment.self_s"] + m["cli.self_s"]
    gap = wall - accounted
    tol = max(SELF_CHECK_ABS_S, SELF_CHECK_REL * wall)
    if not 0.0 <= gap <= tol:
        problems.append(f"top-level spans + experiment.self_s + cli.self_s "
                        f"= {accounted:.3f} s, traced wall {wall:.3f} s "
                        f"(allowed gap 0 to {tol:.3f} s)")
    shares = {layer: sum(d for name, d in self_s.items()
                         if name.split(".")[0] == layer) / wall
              for layer in ("data", "embed", "optim", "mapping", "coldstart",
                            "evaluation", "experiment")}
    shares["embed"] += shares.pop("optim")
    shares["cli"] = m["cli.self_s"] / wall
    return m, problems, shares, gap


def traced(name, seed, work, tally):
    workload = WORKLOADS[name]
    variant, run_cfg, _, gen_s, want = prepare(name, seed, work)
    logs = os.path.join(work, "log")
    os.makedirs(logs, exist_ok=True)
    imports = [spawn([sys.executable, "-c", "import crossrec.cli"],
                     os.path.join(logs, f"import-{k}.log")).wall
               for k in range(3)]

    plain_dir = fresh_dir(os.path.join(work, "run"))
    plain = spawn(run_command(workload, run_cfg, plain_dir),
                  os.path.join(logs, "run.log"))
    plain_report = read_bytes(os.path.join(plain_dir, "report.tsv"))
    got = hashlib.sha256(plain_report).hexdigest() if plain_report else None
    tally.check(plain.code == 0 and got == want,
                f"untraced run: exit {plain.code}, report sha256 {got}, "
                f"recorded {want}")

    traced_dir = fresh_dir(os.path.join(work, "run_traced"))
    spans_path = os.path.join(work, "spans.json")
    invocation = f"{name}/seed{seed}/run"
    c = spawn([sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
               spans_path, invocation, "--",
               *run_command(workload, run_cfg, traced_dir)[3:]],
              os.path.join(logs, "run_traced.log"))
    if c.code != 0:
        raise WorkloadError(f"the traced run exited {c.code}; see "
                            + os.path.join(logs, "run_traced.log"))
    with open(spans_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    metrics, problems, shares, gap = span_metrics(trace, c.wall)
    if read_bytes(os.path.join(traced_dir, "report.tsv")) != plain_report:
        problems.append("report differs from the untraced run's")
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["synth.generate_s"] = gen_s
    metrics["trace.run_s"] = c.wall
    metrics["trace.overhead_s"] = c.wall - plain.wall
    for metric, value in metrics.items():
        rule = exercised(workload.method, metric)
        if rule is not None and (value != 0) != rule:
            problems.append(f"{metric} = {value} but the {workload.method} "
                            f"run {'exercises' if rule else 'skips'} it")
    tally.check(not problems, "traced run: " + "; ".join(problems))
    with open(os.path.join(work, "spans.jsonl"), "w",
              encoding="utf-8") as fh:
        for k, (sname, start, end, parent) in enumerate(trace["spans"]):
            fh.write(json.dumps({"id": k, "name": sname, "start": start,
                                 "end": end, "parent": parent,
                                 "invocation": invocation}) + "\n")
    info = {"variant": variant, "untraced_run_s": plain.wall,
            "unspanned_s": gap, "layer_share_of_run_s": shares}
    return metrics, info


# -- reporting --------------------------------------------------------------

def high_percentile(values):
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for any."""
    n = len(values)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100,
                                                 method="inclusive")[p - 1]
    return "max", max(values)


def environment(loadavg_start):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": loadavg_start,
        "loadavg_end": read_loadavg(),
        "git_commit": commit,
    }


def read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def record(names):
    """Rerun every input variant and rewrite ``bench/expected.json``."""
    expected = load_expected()
    for name in names:
        workload = WORKLOADS[name]
        entry = {}
        for variant in range(VARIANTS):
            work = fresh_dir(os.path.join(WORK, f"record-{name}"))
            _, hashes = make_inputs(workload, variant, work)
            run_cfg, _ = write_configs(workload, variant, work)
            out = os.path.join(work, "run")
            c = spawn(run_command(workload, run_cfg, out),
                      os.path.join(work, "run.log"))
            if c.code != 0:
                raise WorkloadError(f"{name} variant {variant}: run exited "
                                    f"{c.code}")
            hashes["report.tsv"] = sha256_file(os.path.join(out,
                                                            "report.tsv"))
            entry[str(variant)] = hashes
            print(f"{name} variant {variant}: run {c.wall:.2f} s",
                  flush=True)
            shutil.rmtree(work)
        expected[name] = entry
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")


def run_workload(name, seed, seconds, trace):
    loadavg = read_loadavg()
    work = fresh_dir(os.path.join(WORK, f"{name}-seed{seed}-trace{trace}"))
    tally = Tally()
    if trace:
        values, info = traced(name, seed, work, tally)
        units = dict(PER_LAYER)
        rows = [(m, units[m], values[m], ("max", values[m]), 1)
                for m, _ in PER_LAYER]
    else:
        samples, info = end_to_end(name, seed, work, seconds, tally)
        units = dict(END_TO_END)
        values, rows = {}, []
        for m, unit in END_TO_END:
            if not samples[m]:
                raise WorkloadError(f"no successful sample of {m}")
            values[m] = statistics.median(samples[m])
            label, hi = high_percentile(samples[m])
            rows.append((m, unit, values[m], (label, hi), len(samples[m])))
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]}
                    for m, _ in (PER_LAYER if trace else END_TO_END)},
    }
    env = environment(loadavg)
    drop_artifacts(work)
    with open(os.path.join(work, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace,
                   "info": info, "environment": env,
                   "failures": tally.failures, "result": result}, fh,
                  indent=1)
    for f in tally.failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(f"workload {name}  seed {seed}  trace {trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()
                      if not isinstance(v, dict)))
    print(f"{'metric':28} {'unit':10} {'median':>14} {'high':>20} {'n':>4}")
    for m, unit, value, (label, hi), n in rows:
        print(f"{m:28} {unit:10} {value:14.6g} {label:>5} {hi:14.6g} {n:>4}")
    frac = failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_frac':28} {'ratio':10} {frac:14.6g} {'-':>20} "
          f"{tally.attempted:>4}")
    if trace:
        print("layer self-time share of traced run_s: " + "  ".join(
            f"{k} {v:.1%}" for k, v in info["layer_share_of_run_s"].items()))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0



def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite bench/expected.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crossrec", "cli.py")):
        print(f"error: no crossrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        if args.record:
            record(args.workload or sorted(WORKLOADS))
            return 0
        if not args.workload or len(args.workload) != 1:
            p.error("give exactly one --workload")
        return run_workload(args.workload[0], args.seed, args.seconds,
                            args.trace)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

if __name__ == "__main__":
    sys.exit(main())
