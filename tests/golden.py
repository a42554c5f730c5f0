"""Pinned sha256 of every file ``crossrec run`` writes, so that "same
behaviour" is a check in the suite, not a comparison redone by hand.

``golden.json`` maps a case (config, seed, method) to the sha256 of each
file its run writes, by path under the run directory.  ``manifest.txt`` is
hashed without its ``config.out_dir`` line, the one line that depends on
where the run was written.  Two configs pin two draw sizes: ``smoke`` is
``tests/test_cli.py``'s 60-user config, whose two repeats of 30 negatives
cover half the catalogue; ``direct`` draws 10 negatives.  ``golden.json``
also pins what ``export-vectors`` writes over the ``smoke`` SSCDR run of
seed 11 (the run ``tests/test_cli.py``'s step chain reproduces) at hops 0
and 2.

A change that means to alter an artifact re-records the file::

    PYTHONPATH=src python tests/golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from crossrec import experiment
from crossrec.cli import main
from test_cli import RUN_CFG, _with

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden.json")
CONFIGS = {"smoke": RUN_CFG,
           "direct": _with(RUN_CFG, "eval.negatives=10")}
SEEDS = (11, 12)
CASES = [(config, seed, method) for config in CONFIGS for seed in SEEDS
         for method in experiment.METHODS]
EXPORT_KEY = "export-smoke-11-SSCDR"
EXPORT_HOPS = (0, 2)


def case_key(config, seed, method):
    return f"{config}-{seed}-{method}"


def digest(path):
    """sha256 of the file ``path``; of a manifest, without its
    ``config.out_dir`` line."""
    with open(path, "rb") as fh:
        body = fh.read()
    if os.path.basename(path) == "manifest.txt":
        body = b"".join(line for line in body.splitlines(True)
                        if not line.startswith(b"config.out_dir="))
    return hashlib.sha256(body).hexdigest()


def run_hashes(config, seed, method, root):
    """Run the case under ``root``; the digest of each file it wrote, by
    ``/``-separated path under the run directory."""
    cfg = os.path.join(root, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(_with(CONFIGS[config], f"seed={seed}", f"method={method}"))
    out = os.path.join(root, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", cfg, "--out", out]) == 0
    hashes = {}
    for top, _, names in os.walk(out):
        for name in names:
            path = os.path.join(top, name)
            rel = os.path.relpath(path, out).replace(os.sep, "/")
            hashes[rel] = digest(path)
    return hashes


def export_hashes(root):
    """Run the ``smoke`` SSCDR case of seed 11 under ``root`` and export
    its test users' vectors at each of ``EXPORT_HOPS``; the digest of each
    export, by ``hops<N>.txt``."""
    run_hashes("smoke", 11, "SSCDR", root)
    out = os.path.join(root, "out")
    hashes = {}
    for hops in EXPORT_HOPS:
        path = os.path.join(root, f"hops{hops}.txt")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["export-vectors",
                         "--scenario", os.path.join(out, "scenario"),
                         "--source-emb",
                         os.path.join(out, "source_embeddings.txt"),
                         "--mapping", os.path.join(out, "mapping.txt"),
                         "--hops", str(hops), "--out", path]) == 0
        hashes[os.path.basename(path)] = digest(path)
    return hashes


def load():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def differing(want, got):
    """The paths whose digest differs, or that only one side holds."""
    return sorted(path for path in want.keys() | got.keys()
                  if want.get(path) != got.get(path))


def record():
    golden = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as root:
            golden[case_key(*case)] = run_hashes(*case, root)
    with tempfile.TemporaryDirectory() as root:
        golden[EXPORT_KEY] = export_hashes(root)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(CASES)} runs and {len(EXPORT_HOPS)} exports in "
          f"{PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --record")
    record()
