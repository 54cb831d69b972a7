"""The benchmark's workloads: training runs and inference rounds.

Both drive the public API of ``wsdl`` the way the CLI does, check every
output they time, and count operations attempted and failed. ``Workload``
puts them together into one measurement pass.

Training runs in a child process, one ``pl.train_stagewise`` from scratch
per process, as ``wsdl train`` does. The child prints its result as the last
line of its standard output:

    python3 perfbench/workloads.py train SEED MODEL_DIR WORK_DIR [SPANS_PATH]

(with ``src`` on ``PYTHONPATH``; given ``SPANS_PATH`` it traces itself).
Inference runs in the measuring process, which never trains:
``ad.enable_buffer_reuse`` changes the allocator for the whole process, and
only training calls it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from wsdl import autodiff as ad
from wsdl import evaluate as ev
from wsdl import pipeline as pl
from wsdl import synthdata as sd
from wsdl.config import RunConfig

# The fixed training schedule: default model config, a short run. Eight
# stage-2 epochs cost little and settle the proposal network, whose output
# decides how much NMS work each image takes.
TRAIN_COUNT = 40
EPOCHS = {"epochs_maen": 3, "epochs_rpn": 8, "epochs_heads": 2}
# Inference runs on a model trained from this seed, not the workload seed:
# inference cost depends on the model (NMS work per image), and one model per
# seed moved infer_p50_ms by about 10% across seeds.
REFERENCE_SEED = 7

# Each run has ROUNDS rounds, each with a training run and an inference round,
# so that every metric samples the whole run and not one stretch of a machine
# whose speed drifts. Minimum work of one inference round:
ROUNDS = 3
STREAM_IMAGES = 60       # the stream cycles over the first 60 test images
STREAM_MIN = 100         # infer calls
SEPARATE_IMAGES = 60     # infer_separate calls, on the same 60 images
EVAL_MIN = 2             # evaluate_model passes over the whole test split


def run_config(seed: int, test_count: int = 0) -> RunConfig:
    """Default config on the fixed schedule; ``seed`` drives generator and training."""
    cfg = RunConfig.default()
    cfg.gen.seed = seed
    cfg.gen.train_count = TRAIN_COUNT
    cfg.gen.test_count = test_count
    cfg.train.seed = seed
    for key, value in EPOCHS.items():
        setattr(cfg.train, key, value)
    cfg.sync_derived()
    return cfg


def buffer_reuse_active():
    """Whether this process switched the allocator for training (None: unknown)."""
    return getattr(ad, "_fast_malloc_done", None)


class Ops:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, label, fn, *args):
        """Run one operation; returns (result, seconds), result None on an exception."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failing operation is counted, not fatal
            self._fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def check(self, label, ok: bool):
        """One check per operation; a failed check turns it into a failed operation."""
        if not ok:
            self._fail(f"{label}: check failed")

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def merge(self, other: dict):
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors.extend(other["errors"][: max(0, 20 - len(self.errors))])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


@dataclass
class Samples:
    """Raw timings of one run. Calls are kept per image, and each image counts
    with the median of its calls, so a stall hitting a few calls does not
    move the figures."""

    train_s: list = field(default_factory=list)
    infer_s: dict = field(default_factory=dict)     # image index -> seconds per call
    separate_s: dict = field(default_factory=dict)  # image index -> seconds per call
    eval_rates: list = field(default_factory=list)  # images per second, per pass

    def metrics(self) -> dict:
        typical = [statistics.median(v) for v in self.infer_s.values()]
        return {
            "train_s": statistics.median(self.train_s),
            "infer_p50_ms": statistics.median(typical) * 1e3,
            "infer_p95_ms": statistics.quantiles(typical, n=20)[18] * 1e3,
            "separate_img_per_s": len(self.separate_s) / sum(
                statistics.median(v) for v in self.separate_s.values()),
            "eval_img_per_s": statistics.median(self.eval_rates),
        }


def keep_going(done: int, minimum: int, started: float, seconds: float) -> bool:
    """At least ``minimum`` units, then more until ``seconds`` have passed."""
    return done < minimum or time.perf_counter() - started < seconds


# ---------------------------------------------------------------------------
# training


def model_digest(model: pl.TrainedModel) -> str:
    """SHA-256 over every checkpoint's stage tag, parameter names, shapes and bytes."""
    h = hashlib.sha256()
    for ckpt in [model.maen, model.dln] + [model.heads[k] for k in sorted(model.heads)]:
        h.update(ckpt.stage_tag.encode())
        for name in sorted(ckpt.params):
            arr = np.ascontiguousarray(ckpt.params[name])
            h.update(f"{name}{arr.shape}{arr.dtype}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def train_once(seed: int, model_dir, work_dir, ops: Ops) -> dict:
    """Generate the seed's training split, train from scratch, then check that
    ``save_model`` -> ``load_model`` gives back the same model exactly."""
    cfg = run_config(seed)
    sd.generate_dataset(cfg.gen, work_dir)
    view = sd.TrainView(os.path.join(work_dir, "train"))
    model, seconds = ops.call("train_stagewise", pl.train_stagewise, view, cfg)
    digest = None
    if model is not None:
        digest = model_digest(model)
        pl.save_model(model, model_dir)
        loaded, _ = ops.call("load_model", pl.load_model, model_dir)
        if loaded is not None:
            ops.check("save_model/load_model round trip",
                      model_digest(loaded) == digest
                      and loaded.config.to_lines() == model.config.to_lines())
    return {"train_s": seconds, "digest": digest}


# ---------------------------------------------------------------------------
# inference


@dataclass
class InferBudget:
    """Seconds for the home phase of one inference round (0: minimum work only)."""

    stream_seconds: float = 0.0
    eval_seconds: float = 0.0


def _valid(pred, num_classes) -> bool:
    fused = np.asarray(pred.fused)
    return (fused.shape == (num_classes,) and bool(np.all(np.isfinite(fused)))
            and abs(float(fused.sum()) - 1.0) <= 1e-9
            and 0 <= pred.predicted_class < num_classes)


def _same(a, b) -> bool:
    return (np.array_equal(a.fused, b.fused) and a.predicted_class == b.predicted_class
            and a.per_level.keys() == b.per_level.keys()
            and all(a.per_level[k].box == b.per_level[k].box for k in a.per_level))


def inference_round(model: pl.TrainedModel, images, test_dir, round_index: int,
                    budget: InferBudget, samples: Samples, first: dict, ops: Ops,
                    tracer=None):
    """A closed-loop ``infer`` stream (one client, one image per call), then
    ``infer_separate`` on the same images, then ``evaluate_model`` passes.

    ``first`` maps an image index to its first ``infer`` result in the run;
    every later result for that image, shared or separate, must equal it."""
    num_classes = model.config.backbone.num_classes
    stream = images[:STREAM_IMAGES]

    started = time.perf_counter()
    calls = 0
    while keep_going(calls, STREAM_MIN, started, budget.stream_seconds):
        k = calls % len(stream)
        if tracer is not None:
            tracer.group = f"infer:{round_index}:{calls}:image{k}"
        pred, seconds = ops.call("infer", pl.infer, stream[k], model)
        calls += 1
        samples.infer_s.setdefault(k, []).append(seconds)
        if pred is not None:
            ops.check(f"infer image {k}: valid, and equal to its earlier calls",
                      _valid(pred, num_classes) and _same(first.setdefault(k, pred), pred))

    for k, image in enumerate(images[:SEPARATE_IMAGES]):
        if tracer is not None:
            tracer.group = f"separate:{round_index}:image{k}"
        pred, seconds = ops.call("infer_separate", pl.infer_separate, image, model)
        samples.separate_s.setdefault(k, []).append(seconds)
        if pred is not None:
            ops.check(f"infer_separate image {k}: valid, and equal to infer",
                      _valid(pred, num_classes) and k in first and _same(first[k], pred))

    started = time.perf_counter()
    passes = 0
    report_json = None
    while keep_going(passes, EVAL_MIN, started, budget.eval_seconds):
        if tracer is not None:
            tracer.group = f"eval:{round_index}:{passes}"
        report, seconds = ops.call("evaluate_model", ev.evaluate_model, model, test_dir)
        passes += 1
        samples.eval_rates.append(len(images) / seconds)
        if report is not None:
            text = report.to_json()
            report_json = report_json or text
            ops.check("evaluate_model: report byte-equal to the round's first, all images scored",
                      text == report_json and report.test_count == len(images))


def warm_up(model: pl.TrainedModel, image):
    """Let lazy set-up finish: one call through each inference entry point."""
    pl.infer(image, model)
    pl.infer_separate(image, model)
    pl.maen_pseudo_box(image, model)


# ---------------------------------------------------------------------------
# workloads

WORKLOADS = {
    # test images per split, home phase
    "train": (60, "train"),
    "infer-stream": (60, "stream"),
    "eval-bulk": (100, "eval"),
}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def run_child(root: str, args: list) -> dict:
    """Run this file's ``main`` in a fresh process and return its result."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args], cwd=root,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workload:
    """One workload's data, models and measurement passes."""

    def __init__(self, name: str, seed: int, root: str, work_dir: str, spans_prefix: str):
        self.root = root
        self.work_dir = work_dir
        self.spans_prefix = spans_prefix
        self.test_count, self.home = WORKLOADS[name]
        self.cfg = run_config(seed, self.test_count)
        self.train_seed = seed if self.home == "train" else REFERENCE_SEED
        self.model_dir = os.path.join(work_dir, "reference-model")
        self.digests = {}  # training seed -> checkpoint digest of its first run
        self.children = 0

    def _train(self, seed: int, pass_dir, samples, ops, facts, tracer):
        """One training run in a fresh child process, as ``wsdl train`` runs.
        The first reference model is kept for inference."""
        self.children += 1
        keep = seed == REFERENCE_SEED and not os.path.isdir(self.model_dir)
        label = f"train{self.children}"
        args = ["train", str(seed),
                self.model_dir if keep else os.path.join(pass_dir, f"model-{label}"),
                os.path.join(pass_dir, f"data-{label}")]
        if tracer is not None:
            args.append(f"{self.spans_prefix}-{label}.jsonl")
        child = run_child(self.root, args)
        ops.merge(child)
        if child["digest"] is not None:
            ops.check(f"training on seed {seed}: the same checkpoints in every process",
                      self.digests.setdefault(seed, child["digest"]) == child["digest"])
        if samples is not None:
            samples.train_s.append(child["train_s"])
        if tracer is not None:
            tracer.absorb(child["layers"], child["trace_missing"])
        facts["training_buffer_reuse"] = child["buffer_reuse"]

    def run(self, seconds: float, ops, tracer=None) -> dict:
        """One measurement pass of ROUNDS rounds, each a training run and an
        inference round; the home phase of each round runs on for its share of
        ``seconds``. Returns the end-to-end metrics and run facts."""
        share = seconds / ROUNDS
        samples = Samples()
        first = {}
        facts = {}
        pass_dir = tempfile.mkdtemp(dir=self.work_dir)
        trained_now = False
        if not os.path.isdir(self.model_dir):  # set-up loads it
            trained_now = self.train_seed == REFERENCE_SEED
            self._train(REFERENCE_SEED, pass_dir, samples if trained_now else None,
                        ops, facts, tracer)

        setup_times = []
        for k in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.group = f"setup:{k}"
            data = os.path.join(pass_dir, f"data{k}")
            test_dir = os.path.join(data, "test")
            start = time.perf_counter()
            sd.generate_dataset(self.cfg.gen, data)
            model = pl.load_model(self.model_dir)
            images = sd.TrainView(test_dir).images
            warm_up(model, images[0])
            setup_times.append(time.perf_counter() - start)

        budget = InferBudget(stream_seconds=share if self.home == "stream" else 0.0,
                             eval_seconds=share if self.home == "eval" else 0.0)
        for r in range(ROUNDS):
            started = time.perf_counter()
            runs = int(r == 0 and trained_now)
            while keep_going(runs, 1, started, share if self.home == "train" else 0):
                self._train(self.train_seed, pass_dir, samples, ops, facts, tracer)
                runs += 1
            inference_round(model, images, test_dir, r, budget, samples, first, ops, tracer)

        metrics = samples.metrics()
        metrics["setup_s"] = statistics.median(setup_times)
        who = resource.RUSAGE_CHILDREN if self.home == "train" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        facts.update(buffer_reuse=buffer_reuse_active(),
                     train_runs=len(samples.train_s),
                     infer_calls=sum(len(v) for v in samples.infer_s.values()),
                     eval_passes=len(samples.eval_rates), digests=self.digests)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return {"metrics": metrics, "facts": facts}


# ---------------------------------------------------------------------------
# the training child


def main(argv) -> int:
    if argv[:1] != ["train"] or len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    seed, model_dir, work_dir = int(argv[1]), argv[2], argv[3]
    tracer = None
    if len(argv) == 5:
        from tracing import Tracer

        tracer = Tracer()
        tracer.group = f"train:seed{seed}"
        tracer.install()
    ops = Ops()
    result = train_once(seed, model_dir, work_dir, ops)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(argv[4])
        result["layers"] = tracer.raw()
        result["trace_missing"] = tracer.missing
    result.update(buffer_reuse=buffer_reuse_active(), **ops.as_dict())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
