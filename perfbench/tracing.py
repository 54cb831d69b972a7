"""Per-layer tracing of the wsdl package, installed from outside it.

The package calls across its modules through module attributes
(``ad.conv2d``, ``bb.stage_forward``, ``rpn.propose``, ``pl.infer`` ...) and
looks up module globals at call time (``iou`` inside ``rpn.nms``), so
replacing an attribute on its module reroutes every caller. ``Tracer``
replaces each target with a wrapper that records a span (name, start, end,
parent span, group) in memory, or for very hot targets only counts calls.
A layer's self time is its span's duration minus the time covered by its
child spans; spans nest strictly because the package runs in one thread.

A target that no longer exists is skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, kind): "span" records a timed span, "count" only
# counts calls (used where the per-call cost of a span would swamp the call).
TARGETS = (
    ("autodiff", "conv2d", "span"),
    ("autodiff", "max_pool2d", "span"),
    ("autodiff", "linear", "span"),
    ("autodiff", "backward", "span"),
    ("autodiff", "SGD.step", "span"),
    ("backbone", "stage_forward", "span"),
    ("backbone", "maen_forward", "span"),
    ("backbone", "load_checkpoint", "span"),
    ("attention", "pseudo_boxes", "span"),
    ("attention", "otsu_threshold", "span"),
    ("attention", "largest_component_bbox", "span"),
    ("rpn", "rpn_forward", "span"),
    ("rpn", "propose", "span"),
    ("rpn", "nms", "span"),
    ("rpn", "iou", "count"),
    ("rpn", "label_anchors", "span"),
    ("rpn", "rpn_loss", "span"),
    ("heads", "roi_pool_batch", "span"),
    ("heads", "roi_pool", "count"),
    ("heads", "head_forward", "span"),
    ("heads", "head_targets", "span"),
    ("heads", "head_loss", "span"),
    ("pipeline", "train_maen", "span"),
    ("pipeline", "pseudo_box_table", "span"),
    ("pipeline", "train_rpn", "span"),
    ("pipeline", "train_heads", "span"),
    ("pipeline", "infer", "span"),
    ("pipeline", "infer_separate", "span"),
    ("evaluate", "evaluate_model", "span"),
    ("evaluate", "localization_accuracy", "span"),
    ("synthdata", "generate_dataset", "span"),
    ("synthdata", "TrainView", "span"),
    ("synthdata", "load_annotations", "span"),
)


# Observers turn a call's arguments or result into named counts. Each returns
# {count name: increment}; a ratio metric is numerator / denominator.
def _fallbacks(args, kwargs, result):
    return {"attention.fallbacks": int(result is None)}


def _proposals(args, kwargs, result):
    return {"rpn.proposals": len(result)}


def _positive_anchors(args, kwargs, result):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    sampled = batch.labels[batch.sampled]
    return {"rpn.positive_anchors": int((sampled == 1).sum()),
            "rpn.sampled_anchors": len(sampled)}


def _fg_rois(args, kwargs, result):
    fg_mask = result[3]
    return {"heads.fg_rois": int(fg_mask.sum()), "heads.sampled_rois": len(fg_mask)}


OBSERVERS = {
    "attention.largest_component_bbox": _fallbacks,
    "rpn.propose": _proposals,
    "rpn.rpn_loss": _positive_anchors,
    "heads.head_targets": _fg_rois,
}

# derived metric -> (numerator, denominator): counts or span call counts
RATIOS = {
    "rpn.proposals_per_image": ("rpn.proposals", "rpn.propose.calls"),
    "rpn.positive_anchor_frac": ("rpn.positive_anchors", "rpn.sampled_anchors"),
    "heads.fg_roi_frac": ("heads.fg_rois", "heads.sampled_rois"),
}


class Tracer:
    """Spans and counts for one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.group = "setup"      # one id per image, pass or training run
        self.spans = []           # (span id, parent id, group, name, start, end, self seconds)
        self.counts = defaultdict(int)
        self.missing = []         # targets absent from the package, or observers that broke
        self.absorbed = []        # raw() of traced child processes
        self._next_id = 0
        self._stack = []          # [span id, seconds covered by children]
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self):
        for module_name, path, kind in TARGETS:
            name = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"wsdl.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(original, type):  # a class: time its construction
                owner, attr, original = original, "__init__", original.__init__
            wrapper = (self._counter(name, original) if kind == "count"
                       else self._span(name, original, OBSERVERS.get(name)))
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _counter(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, parent, tracer.group, name, start, end,
                                     duration - frame[1]))
            if observe is not None:
                tracer._observe(name, observe, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name, observe, args, kwargs, result):
        try:
            increments = observe(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            entry = f"{name} (observer)"
            if entry not in self.missing:
                self.missing.append(entry)
            return
        for key, value in increments.items():
            self.counts[key] += value

    # -- results --------------------------------------------------------

    def absorb(self, raw: dict, missing=()):
        """Add a traced child process's ``raw()`` figures to this tracer's."""
        self.absorbed.append(raw)
        self.missing.extend(m for m in missing if m not in self.missing)

    def raw(self) -> dict:
        """name.calls / name.total_s / name.self_s per span name, plus the counts."""
        out = defaultdict(float)
        for _, _, _, name, start, end, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += self_s
        for source in [self.counts, *self.absorbed]:
            for key, value in source.items():
                out[key] += value
        return dict(out)

    def metrics(self) -> dict:
        """``raw()`` plus the ratio metrics."""
        out = self.raw()
        for metric, (num, den) in RATIOS.items():
            if out.get(den):
                out[metric] = out.get(num, 0) / out[den]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, group, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "group": group,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
