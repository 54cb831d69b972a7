"""Stage-wise training and end-to-end inference.

Training runs three stages in order:

1. the classification network (backbone + cam head) on image-level labels;
2. the region proposal network over stage 1's own convolutional stages,
   frozen after stage 1, trained against the attention pseudo boxes;
3. one localization head per attention level, trained on frozen proposals
   and frozen shared features against that level's pseudo boxes.

The stage-1 conv stages are the only trunk: the stage-2 checkpoint holds the
proposal network alone, and one pass of the frozen trunk per training image
gives stages 2 and 3 both its pseudo boxes and its shared map. Each stage owns
dedicated random streams spawned from the one training seed, so a run that
keeps the first stages' checkpoints reproduces the composed run bit for bit.
Inference shares one backbone pass per image across the proposal network and
all heads; batches of images share one proposal-network pass, with bit for
bit the outputs of one image at a time.
"""

from __future__ import annotations

import os

import numpy as np

from . import attention as att
from . import autodiff as ad
from . import backbone as bb
from . import heads as hd
from . import rpn
from .autodiff import Tensor
from .config import RunConfig

LOG_LINE = "stage={stage} epoch={epoch} loss={loss:.6f} acc={acc:.4f}"

# Images per batch in the pseudo-box pass, evaluation and ``infer_batch``: a
# batch shares one OTSU pass and one proposal-network pass. The trunk still
# runs one image at a time; batched it was no faster, and a batched linear
# layer changes the cam logits' bits. Bounded because a batch's
# proposal-network buffers live at once: evaluating a 100-image split peaked
# at 49.5 MB RSS at batch 1, 50.1 at batch 8 and 70.9 as one batch.
BATCH = 8

# stream indices off the training seed, one block per purpose
_STREAMS = 8
(_S_INIT_MAEN, _S_SHUFFLE_MAEN, _S_INIT_DLN, _S_SAMPLE_RPN,
 _S_SHUFFLE_RPN, _S_INIT_HEADS, _S_SAMPLE_HEADS, _S_SHUFFLE_HEADS) = range(_STREAMS)


def _rng(config: RunConfig, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.train.seed).spawn(_STREAMS)[stream])


class TrainedModel:
    """Checkpoints plus the live parameter tables used for inference."""

    def __init__(self, maen: bb.Checkpoint, dln: bb.Checkpoint, heads: dict,
                 config: RunConfig):
        self.maen = maen
        self.dln = dln
        self.heads = heads
        self.config = config
        self.maen_params = bb.checkpoint_to_params(maen)
        self.rpn_params = bb.checkpoint_to_params(dln)
        self.head_params = {lvl: bb.checkpoint_to_params(c) for lvl, c in heads.items()}
        self.anchors = rpn.generate_anchors(*config.backbone.grid_size, config.anchor)

    @property
    def levels(self) -> tuple:
        return self.config.backbone.tap_levels


def _sgd_step(opt: ad.SGD, loss: Tensor) -> float:
    """Backpropagate ``loss`` into ``opt``'s parameters, update them, and return
    the loss value; a non-finite loss raises ``RuntimeError``."""
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    value = loss.item()
    if not np.isfinite(value):
        raise RuntimeError(f"training diverged: loss = {value}")
    return value


# One function per training step: the step's graph (activations and
# closures) is freed when it returns, not kept alive while the next step's
# forward builds. Each returns (loss, its weight in the epoch's mean loss,
# correct items, items counted for accuracy).


def _maen_step(params: dict, opt: ad.SGD, images: np.ndarray, labels: np.ndarray,
               bc) -> tuple:
    """One stage-1 step on a batch, weighted by its images."""
    probs = ad.softmax(bb.maen_forward(params, images, bc)[2])
    loss = _sgd_step(opt, ad.cross_entropy(probs, labels))
    return loss, len(labels), int((probs.data.argmax(axis=1) == labels).sum()), len(labels)


def _rpn_step(params: dict, opt: ad.SGD, late: np.ndarray, batch: rpn.AnchorBatch,
              ac) -> tuple:
    """One stage-2 step on one image's sampled anchors."""
    probs, deltas = rpn.rpn_forward(params, late, ac)
    loss = _sgd_step(opt, rpn.rpn_loss(probs, deltas, batch, ac))
    predicted = probs.data.argmax(axis=1)[batch.sampled]
    return loss, 1, int((predicted == batch.labels[batch.sampled]).sum()), len(batch.sampled)


def _head_step(params: dict, opt: ad.SGD, pooled: np.ndarray, cls_t: np.ndarray,
               delta_t: np.ndarray, fg: np.ndarray, hc) -> tuple:
    """One stage-3 step on one image's RoIs at one level."""
    scores, deltas = hd.head_forward(params, pooled, hc)
    loss = _sgd_step(opt, hd.head_loss(scores, deltas, cls_t, delta_t, fg))
    return loss, 1, int((scores.data.argmax(axis=1) == cls_t).sum()), len(cls_t)


def _epochs(stage: str, config: RunConfig, opts, steps, n: int, log_fn):
    """The schedule of every stage: each of ``epochs_<stage>`` epochs runs the
    steps that ``steps(perm)`` yields for a fresh permutation of the ``n``
    training images. At epoch ``decay_epoch_<stage>`` every optimizer of
    ``opts`` divides its learning rate by ``decay_factor``, once. Logs one
    ``LOG_LINE`` per epoch: the weighted mean loss and the accuracy."""
    ad.enable_buffer_reuse()
    tc = config.train
    number = ("maen", "rpn", "heads").index(stage) + 1
    rng_shuffle = _rng(config, (_S_SHUFFLE_MAEN, _S_SHUFFLE_RPN, _S_SHUFFLE_HEADS)[number - 1])
    for epoch in range(getattr(tc, f"epochs_{stage}")):
        if epoch == getattr(tc, f"decay_epoch_{stage}"):
            for opt in opts:
                opt.learning_rate = opt.learning_rate / tc.decay_factor
        loss_sum = 0.0
        weight = correct = counted = 0
        for loss, w, c, k in steps(rng_shuffle.permutation(n)):
            loss_sum += loss * w
            weight += w
            correct += c
            counted += k
        if log_fn:
            log_fn(LOG_LINE.format(stage=number, epoch=epoch + 1, loss=loss_sum / weight,
                                   acc=correct / counted))


def _check_view(view, config: RunConfig):
    found = len(np.unique(view.labels))
    if found < 2:
        raise ValueError(f"dataset must have at least 2 classes, found {found}")
    n_classes = int(view.labels.max()) + 1
    if n_classes > config.backbone.num_classes:
        raise ValueError(
            f"dataset has {n_classes} classes but the backbone is configured "
            f"for {config.backbone.num_classes}")


def pseudo_box_table(view, config: RunConfig, maen_ckpt: bb.Checkpoint) -> list:
    """Per training image: (pseudo boxes [L,4] in ``tap_levels`` order, last
    stage output as a [1,C,h,w] array), from one pass of the frozen
    classification network."""
    _check_view(view, config)
    maen_params = bb.checkpoint_to_params(maen_ckpt)
    table = []
    for images in batches(view.images):
        table += att.pseudo_boxes_batch(images, maen_params, config.backbone)
    return table


def train_maen(view, config: RunConfig, log_fn=None) -> bb.Checkpoint:
    """Stage 1: the attention-extraction classifier on image-level labels."""
    tc, bc = config.train, config.backbone
    _check_view(view, config)
    params = bb.init_maen_params(bc, _rng(config, _S_INIT_MAEN))
    opt = ad.SGD(params, tc.learning_rate, tc.momentum, tc.weight_decay)

    def steps(perm):
        for start in range(0, len(perm), tc.batch_maen):
            idx = perm[start : start + tc.batch_maen]
            # stacked per batch, not from a stacked copy of the whole split
            yield _maen_step(params, opt, np.stack([view.images[i] for i in idx]),
                             view.labels[idx], bc)

    _epochs("maen", config, [opt], steps, len(view), log_fn)
    return bb.params_to_checkpoint(params, "maen")


def train_rpn(view, config: RunConfig, table: list, log_fn=None) -> bb.Checkpoint:
    """Stage 2: proposal head over the stage-1 conv stages, kept frozen.

    Freezing the trunk preserves the class separability of the shared map for
    the stage-3 heads; fine-tuning the whole stack on pure objectness erases
    it within one epoch at this scale. The frozen trunk also lets every epoch
    reuse the one pass per image that ``table`` (a ``pseudo_box_table``)
    cached. The returned checkpoint holds only the ``rpn.*`` parameters.
    """
    tc, bc, ac = config.train, config.backbone, config.anchor
    rng_init = _rng(config, _S_INIT_DLN)
    rng_sample = _rng(config, _S_SAMPLE_RPN)
    # Drawn and thrown away: it keeps the proposal head's random draws where
    # they were, and with them every trained model.
    bb.init_stage_params(bc, rng_init)
    params = rpn.init_rpn_params(bc.stage_channels[-1], ac, rng_init)
    anchors = rpn.generate_anchors(*bc.grid_size, ac)
    anchor_batches = [rpn.label_anchors(anchors, boxes, ac, rng_sample) for boxes, _ in table]
    opt = ad.SGD(params, tc.learning_rate, tc.momentum, tc.weight_decay)

    def steps(perm):
        for i in perm:
            batch = anchor_batches[i]
            batch.sampled = rpn.sample_for_loss(batch.labels, ac, rng_sample)
            yield _rpn_step(params, opt, table[i][1], batch, ac)

    _epochs("rpn", config, [opt], steps, len(view), log_fn)
    return bb.params_to_checkpoint(params, "dln")


def train_heads(view, config: RunConfig, table: list, dln_ckpt: bb.Checkpoint,
                log_fn=None) -> dict:
    """Stage 3: per-level heads over frozen shared features and frozen proposals,
    both read from ``table``'s cached maps."""
    tc, bc, ac, hc = config.train, config.backbone, config.anchor, config.head
    rng_init = _rng(config, _S_INIT_HEADS)
    rng_sample = _rng(config, _S_SAMPLE_HEADS)
    proposals = _proposals(bb.checkpoint_to_params(dln_ckpt), [late for _, late in table],
                           rpn.generate_anchors(*bc.grid_size, ac), config)
    params = {level: hd.init_head_params(hc, bc.stage_channels[-1], rng_init)
              for level in bc.tap_levels}
    opts = {level: ad.SGD(p, tc.learning_rate, tc.momentum, tc.weight_decay)
            for level, p in params.items()}
    stride = bc.tap_stride("late")

    def steps(perm):
        for i in perm:
            boxes, late = table[i]
            for level, box in zip(bc.tap_levels, boxes):
                rois, cls_t, delta_t, fg = hd.head_targets(
                    proposals[i], box, int(view.labels[i]), hc, rng_sample, bc.input_size)
                pooled = hd.roi_pool_batch(late[0], rois, stride, hc.roi_out)
                yield _head_step(params[level], opts[level], pooled, cls_t, delta_t, fg, hc)

    _epochs("heads", config, opts.values(), steps, len(view), log_fn)
    return {level: bb.params_to_checkpoint(params[level], f"head.{level}")
            for level in bc.tap_levels}


def train_stagewise(view, config: RunConfig, log_fn=None, trained=()) -> TrainedModel:
    """The three stages in order over a training view (images and labels only).
    ``trained`` keeps the first stages' checkpoints, in order: ``(maen,)``
    retrains stages 2 and 3 and ``(maen, dln)`` stage 3, which reads both."""
    if len(trained) > 2 or None in trained:
        raise ValueError("trained holds a maen checkpoint, then optionally a dln checkpoint")
    maen_ckpt = trained[0] if trained else train_maen(view, config, log_fn)
    table = pseudo_box_table(view, config, maen_ckpt)
    dln_ckpt = trained[1] if len(trained) > 1 else train_rpn(view, config, table, log_fn)
    head_ckpts = train_heads(view, config, table, dln_ckpt, log_fn)
    return TrainedModel(maen_ckpt, dln_ckpt, head_ckpts, config)


# ---------------------------------------------------------------------------
# inference


def batches(items):
    """``items`` in consecutive slices of ``BATCH``, each sliced as it is reached."""
    return (items[start : start + BATCH] for start in range(0, len(items), BATCH))


def _trunk(image, model: TrainedModel) -> np.ndarray:
    """The last stage output of one image, a [1,C,h,w] array."""
    return bb.stage_forward(model.maen_params, np.asarray(image)[None],
                            model.config.backbone)[-1].data


def _proposals(rpn_params: dict, lates: list, anchors: np.ndarray, config: RunConfig) -> list:
    """The proposals [K,4] of each [1,C,h,w] map array of ``lates``: one
    proposal-network pass per ``BATCH`` of maps, then ``rpn.propose`` per map."""
    proposals = []
    for group in batches(lates):
        probs, deltas = rpn.rpn_forward(rpn_params, np.concatenate(group), config.anchor)
        for p, d in zip(np.split(probs.data, len(group)), np.split(deltas.data, len(group))):
            proposals.append(rpn.propose(p, d, anchors, config.anchor,
                                         config.backbone.input_size))
    return proposals


def _infer(model: TrainedModel, groups) -> list:
    """One prediction per image of a batch. ``groups`` holds, per image, its
    (levels, last stage output as a [1,C,h,w] array) passes, which cover
    ``model.levels`` in order. Each map gets its own proposals
    (``_proposals``), pooled RoIs and the heads of its levels; each level
    decodes only its chosen row, and each image gets its fused scores."""
    bc, hc = model.config.backbone, model.config.head
    image_size = bc.input_size
    stride = bc.tap_stride("late")
    lates = [late for passes in groups for _, late in passes]
    per_map = iter(_proposals(model.rpn_params, lates, model.anchors, model.config))
    predictions = []
    for passes in groups:
        per_level, fulls = {}, []
        for levels, late in passes:
            proposals = next(per_map)
            if not len(proposals):
                proposals = hd.roi_table(proposals, image_size)
            rois = hd.roi_table(proposals, image_size)
            pooled = hd.roi_pool_batch(late[0], rois, stride, hc.roi_out)
            for level in levels:
                scores_t, deltas_t = hd.head_forward(model.head_params[level], pooled, hc)
                s = scores_t.data
                r = int(np.argmax(1.0 - s[: len(proposals), hc.background]))
                box = rpn.decode_boxes(deltas_t.data[[r]], proposals[[r]], image_size)[0]
                if box[2] - box[0] <= 0 or box[3] - box[1] <= 0:
                    box = proposals[r]  # a refinement collapsed under clipping keeps its proposal
                per_level[level] = hd.LevelPrediction(
                    box=att.Box(*box), scores=hd.renormalize_foreground(s[r], hc.num_classes))
                fulls.append(hd.renormalize_foreground(s[-1], hc.num_classes))
        full_image_scores = np.mean(fulls, axis=0)
        fused, cls = hd.fuse_scores([p.scores for p in per_level.values()], full_image_scores)
        predictions.append(hd.Prediction(per_level=per_level, full_image_scores=full_image_scores,
                                         fused=fused, predicted_class=cls))
    return predictions


def infer(image, model: TrainedModel) -> hd.Prediction:
    """One shared backbone pass, one proposal pass, all heads on the same map."""
    return _infer(model, [[(model.levels, _trunk(image, model))]])[0]


def infer_separate(image, model: TrainedModel) -> hd.Prediction:
    """Reference mode: one full network pass per level (no feature sharing)."""
    return _infer(model, [[((level,), _trunk(image, model)) for level in model.levels]])[0]


def infer_batch(images, model: TrainedModel) -> list:
    """``infer`` over many images: one trunk pass per image, then ``_infer``
    over each ``BATCH`` of them; the predictions are bit for bit ``infer``'s."""
    predictions = []
    for batch in batches(images):
        predictions += _infer(model, [[(model.levels, _trunk(image, model))] for image in batch])
    return predictions


def maen_pseudo_box(image, model: TrainedModel, level: str = "cam") -> att.Box:
    """The classification network's direct pseudo box for one image."""
    if level not in model.levels:
        raise ValueError(f"level {level!r} is not one of the model's levels {model.levels}")
    boxes, _ = att.pseudo_boxes_batch([image], model.maen_params, model.config.backbone)[0]
    return att.Box(*boxes[model.levels.index(level)].tolist())


# ---------------------------------------------------------------------------
# model directory


def save_model(model: TrainedModel, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    bb.save_checkpoint(model.maen, os.path.join(out_dir, "maen.ckpt"))
    bb.save_checkpoint(model.dln, os.path.join(out_dir, "dln.ckpt"))
    for level in bb.VALID_TAPS:  # a head of a level the model lacks is an older model's
        path = os.path.join(out_dir, f"head_{level}.ckpt")
        if level in model.heads:
            bb.save_checkpoint(model.heads[level], path)
        elif os.path.exists(path):
            os.remove(path)
    with open(os.path.join(out_dir, "model_config.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(model.config.to_lines())


def _check_layout(ckpt: bb.Checkpoint, path, stage_tag: str, expected: dict):
    """Reject a checkpoint whose tag, names or shapes differ from ``expected``."""
    if ckpt.stage_tag != stage_tag:
        raise ValueError(f"{path}: stage tag {ckpt.stage_tag!r}, expected {stage_tag!r}")
    for name in ckpt.params:
        if name not in expected:
            raise ValueError(f"{path}: unexpected parameter {name!r}")
    for name, t in expected.items():
        if name not in ckpt.params:
            raise ValueError(f"{path}: missing parameter {name!r}")
        if ckpt.params[name].shape != t.shape:
            raise ValueError(f"{path}: parameter {name!r} has shape "
                             f"{ckpt.params[name].shape}, expected {t.shape}")


def load_checkpoints(model_dir, config: RunConfig, count=None) -> list:
    """The first ``count`` checkpoints of a model directory in ``save_model``'s
    order (all by default), each checked against the layout ``config`` gives
    it; a mismatch raises ``ValueError`` naming the file."""
    bc = config.backbone
    rng = np.random.default_rng(0)  # only the shapes of the initial tables are used
    head = hd.init_head_params(config.head, bc.stage_channels[-1], rng)
    layouts = {"maen.ckpt": ("maen", bb.init_maen_params(bc, rng)),
               "dln.ckpt": ("dln", rpn.init_rpn_params(bc.stage_channels[-1], config.anchor, rng)),
               **{f"head_{level}.ckpt": (f"head.{level}", head) for level in bc.tap_levels}}
    ckpts = []
    for name in list(layouts)[:count]:
        path = os.path.join(model_dir, name)
        ckpts.append(bb.load_checkpoint(path))
        _check_layout(ckpts[-1], path, *layouts[name])
    return ckpts


def load_model(model_dir) -> TrainedModel:
    """Load a saved model, checking every checkpoint against ``model_config.txt``,
    which must set every configuration key once, as ``save_model`` writes it."""
    path = os.path.join(model_dir, "model_config.txt")
    config = RunConfig.default()
    with open(path, encoding="utf-8") as fh:
        keys = config.apply_text(fh.read(), source=path)
    for key in config.schema():
        if key not in keys:
            raise ValueError(f"{path}: key {key!r} is missing")
    config.sync_derived()
    maen, dln, *heads = load_checkpoints(model_dir, config)
    return TrainedModel(maen, dln, dict(zip(config.backbone.tap_levels, heads)), config)
