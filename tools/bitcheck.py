"""Check that two checkouts of wsdl train, evaluate and predict bit for bit alike.

    python3 tools/bitcheck.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        [--seeds 1-10] [--eval-seeds 1,2,3,7] [--test-counts 60,100]

Each checkout runs in a Python process of its own, with
``PYTHONPATH=<checkout>/src``; the two run at once, each with one BLAS
thread unless the environment sets the count. Each takes the training schedule
(``run_config``) and ``model_digest`` from its own
``perfbench/workloads.py``. The process writes a dump that maps entry names
to SHA-256 digests:

- per training seed (``--seeds`` and ``--eval-seeds``): each split directory
  that ``sd.generate_dataset`` wrote (its files' names and bytes, in sorted
  order), ``model_digest``, every training log line, named with its
  ``stage=K``, and the bytes of every checkpoint file. ``model_config.txt`` is
  left out, since it lists the configuration keys;
- per test split (an eval seed's split of each ``--test-counts`` size): each
  split directory written, as above; and per model of an eval seed: the
  ``ev.evaluate_model`` report JSON, and per image ``pl.infer``,
  ``pl.infer_separate`` and ``pl.maen_pseudo_box`` at every level.

It prints ``bit-identical`` and exits 0 when both dumps hold the same
entries with the same digests. Otherwise it exits 1: it names the first
entry that differs or that only one side holds, then prints one line per
entry kind (``dataset``, ``model_digest``, ``log stage=K`` per training stage,
``checkpoint FILE`` per checkpoint file, ``evaluate_model``, ``infer``,
``infer_separate``, ``maen_pseudo_box``) with how many entries are equal and
how many differ, so that a change which moves some outputs (say, only stage
3's) shows which. 2 means a checkout failed to run. ``dump`` is the child's own
command:

    python3 tools/bitcheck.py dump CHECKOUT OUT_JSON [options]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def _numbers(text: str) -> list:
    """``1-3,7`` -> [1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _parser(child: bool) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bitcheck", description=__doc__.splitlines()[0])
    if child:
        p.add_argument("checkout")
        p.add_argument("out")
    else:
        p.add_argument("parent")
        p.add_argument("change")
    p.add_argument("--seeds", type=_numbers, default=_numbers("1-10"),
                   help="training seeds, e.g. 1-10 (default)")
    p.add_argument("--eval-seeds", type=_numbers, default=_numbers("1,2,3,7"),
                   help="seeds whose test splits and models are evaluated")
    p.add_argument("--test-counts", type=_numbers, default=[60, 100],
                   help="test split sizes, e.g. 60,100 (default)")
    return p


def _sha(*parts) -> str:
    """SHA-256 over strings, ints and arrays (dtype and shape included)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(f"{part!r};".encode())
    return h.hexdigest()


def _dataset(entries: dict, where: str, data: str):
    """One ``dataset`` entry per split directory of ``data``: SHA-256 over each
    file's name and bytes, in sorted order."""
    for split in sorted(os.listdir(data)):
        h = hashlib.sha256()
        for name in sorted(os.listdir(os.path.join(data, split))):
            with open(os.path.join(data, split, name), "rb") as fh:
                raw = fh.read()
            h.update(f"{name!r};{len(raw)};".encode())
            h.update(raw)
        entries[f"{where}: dataset {split}"] = h.hexdigest()


def _prediction(pred) -> str:
    parts = [pred.predicted_class, np.asarray(pred.fused), np.asarray(pred.full_image_scores)]
    for level, lp in pred.per_level.items():
        parts += [level, np.asarray(lp.box, dtype=np.float64), np.asarray(lp.scores)]
    return _sha(*parts)


def dump(checkout: str, args, work: str) -> dict:
    """Every entry of one checkout; its ``wsdl`` must be the one imported."""
    import wsdl
    from wsdl import evaluate as ev
    from wsdl import pipeline as pl
    from wsdl import synthdata as sd

    if not os.path.abspath(wsdl.__file__).startswith(os.path.join(checkout, "src") + os.sep):
        raise RuntimeError(f"imported wsdl from {wsdl.__file__}, not from {checkout}/src")
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import workloads

    entries, models = {}, {}
    for seed in sorted(set(args.seeds) | set(args.eval_seeds)):
        cfg = workloads.run_config(seed)
        data, model_dir = os.path.join(work, f"data-{seed}"), os.path.join(work, f"model-{seed}")
        sd.generate_dataset(cfg.gen, data)
        _dataset(entries, f"seed {seed}", data)
        log = []
        model = pl.train_stagewise(sd.TrainView(os.path.join(data, "train")), cfg, log.append)
        pl.save_model(model, model_dir)
        entries[f"seed {seed}: model_digest"] = workloads.model_digest(model)
        for i, line in enumerate(log, 1):
            entries[f"seed {seed}: log {line.split()[0]} line {i}"] = _sha(line)
        for name in sorted(os.listdir(model_dir)):
            if name.endswith(".ckpt"):
                with open(os.path.join(model_dir, name), "rb") as fh:
                    entries[f"seed {seed}: checkpoint {name}"] = hashlib.sha256(fh.read()).hexdigest()
        models[seed] = pl.load_model(model_dir)

    for seed in args.eval_seeds:
        for count in args.test_counts:
            data = os.path.join(work, f"test-{seed}-{count}")
            sd.generate_dataset(workloads.run_config(seed, count).gen, data)
            _dataset(entries, f"split {seed}/{count}", data)
            test_dir = os.path.join(data, "test")
            view = sd.TrainView(test_dir)
            for model_seed in args.eval_seeds:
                model = models[model_seed]
                where = f"split {seed}/{count}, model {model_seed}"
                entries[f"{where}: evaluate_model"] = _sha(ev.evaluate_model(model, test_dir).to_json())
                for name, image in zip(view.filenames, view.images):
                    entries[f"{where}: infer {name}"] = _prediction(pl.infer(image, model))
                    entries[f"{where}: infer_separate {name}"] = _prediction(
                        pl.infer_separate(image, model))
                    for level in model.levels:
                        box = np.asarray(pl.maen_pseudo_box(image, model, level), dtype=np.float64)
                        entries[f"{where}: maen_pseudo_box {name} {level}"] = _sha(box)
    return entries


def _kind(name: str) -> str:
    """``split 1/60, model 1: infer img_00000.ppm`` -> ``infer``; a log line or a
    checkpoint keeps its stage or file: ``seed 1: log stage=2 line 9`` -> ``log stage=2``."""
    words = name.split(": ", 1)[1].split(" ")
    return " ".join(words[:2]) if words[0] in ("log", "checkpoint") else words[0]


def compare(parent: dict, change: dict) -> int:
    """Print the verdict on two dumps; 0 when equal, else 1 naming the first difference
    and tallying equal and differing entries per kind, a training stage's log lines and
    each checkpoint file apart."""
    names = list(parent) + [name for name in change if name not in parent]
    differ = {name for name in names if parent.get(name) != change.get(name)}
    tally = {}  # kind -> [equal, differing]
    for name in names:
        tally.setdefault(_kind(name), [0, 0])[name in differ] += 1
    if not differ:
        print(f"bit-identical: {len(parent)} entries ("
              + ", ".join(f"{equal} {kind}" for kind, (equal, _) in tally.items()) + ")")
        return 0
    name = next(name for name in names if name in differ)
    how = ("only in the parent" if name not in change
           else "only in the change" if name not in parent else "differs")
    print(f"NOT bit-identical: {name} {how}")
    for kind, (equal, differing) in tally.items():
        print(f"{kind}: {equal} equal, {differing} differ")
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["dump"]:
        args = _parser(child=True).parse_args(argv[1:])
        with tempfile.TemporaryDirectory() as work:
            entries = dump(os.path.abspath(args.checkout), args, work)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        return 0

    args = _parser(child=False).parse_args(argv)
    options = ["--seeds", ",".join(map(str, args.seeds)),
               "--eval-seeds", ",".join(map(str, args.eval_seeds)),
               "--test-counts", ",".join(map(str, args.test_counts))]
    env = {name: os.environ.get(name, "1")
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    with tempfile.TemporaryDirectory() as tmp:
        children = {}
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            checkout = os.path.abspath(checkout)
            out = os.path.join(tmp, f"{side}.json")
            children[side] = (out, subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "dump", checkout, out, *options],
                cwd=checkout, env=dict(os.environ, **env, PYTHONPATH=os.path.join(checkout, "src")),
                stderr=subprocess.PIPE, text=True))
        errors = {side: proc.communicate()[1] for side, (_, proc) in children.items()}
        dumps = {}
        for side, (out, proc) in children.items():
            err = errors[side]
            if proc.returncode != 0:
                print(f"{side} checkout failed ({proc.returncode}):\n{err[-3000:]}", file=sys.stderr)
                return 2
            with open(out, encoding="utf-8") as fh:
                dumps[side] = json.load(fh)
    return compare(dumps["parent"], dumps["change"])


if __name__ == "__main__":
    sys.exit(main())
