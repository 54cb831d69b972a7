import builtins
import math
from collections import Counter
import os
import re
import weakref

import numpy as np
import pytest

from wsdl import autodiff as ad
from wsdl import backbone as bb
from wsdl import evaluate as ev
from wsdl import pipeline as pl
from wsdl import attention as att
from wsdl import heads as hd
from wsdl import rpn
from wsdl import synthdata as sd
from wsdl.attention import Box

from conftest import tiny_config

LOG_RE = re.compile(r"^stage=(\d) epoch=(\d+) loss=(\d+\.\d{6}) acc=(\d+\.\d{4})$")


def _trunk_passes(monkeypatch) -> list:
    """Record the parameter table of every ``bb.stage_forward`` call from now on."""
    calls = []
    real = bb.stage_forward

    def counting(params, images, config):
        calls.append(params)
        return real(params, images, config)

    monkeypatch.setattr(bb, "stage_forward", counting)
    return calls


def _box_builds(monkeypatch) -> list:
    """Record every ``Box`` built from now on."""
    built = []
    real = Box.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Box, "__post_init__", counting)
    return built


def _graphs_alive_at_next_forward(monkeypatch, module, name, owned) -> list:
    """Wrap ``module.name``, a training step's forward, so that each call records
    whether the ndarray that ``owned`` picks from the previous call's result,
    one that only that step's graph holds, is still alive."""
    real = getattr(module, name)
    previous = []
    alive = []

    def checking(*args, **kwargs):
        if previous:
            alive.append(previous[0]() is not None)
        result = real(*args, **kwargs)
        previous[:] = [weakref.ref(owned(result))]
        return result

    monkeypatch.setattr(module, name, checking)
    return alive


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_each_training_step_frees_its_graph(tiny_setup, monkeypatch, stage):
    view, cfg, model = tiny_setup.view, tiny_setup.config, tiny_setup.model
    table = pl.pseudo_box_table(view, cfg, model.maen)
    if stage == 1:
        alive = _graphs_alive_at_next_forward(monkeypatch, bb, "maen_forward",
                                              lambda out: out[0][-1].data)
        pl.train_maen(view, cfg)
    elif stage == 2:
        alive = _graphs_alive_at_next_forward(monkeypatch, rpn, "rpn_forward",
                                              lambda out: out[0].data)
        pl.train_rpn(view, cfg, table)
    else:
        alive = _graphs_alive_at_next_forward(monkeypatch, hd, "head_forward",
                                              lambda out: out[0].data)
        pl.train_heads(view, cfg, table, model.dln)
    assert len(alive) > 1 and not any(alive)


def test_batches_slice_each_batch_as_it_is_reached():
    # a view's images convert to float32 as they are sliced, so slicing every batch
    # up front held a whole split as float32 at once (desk training peaked at 109.4
    # MB that way, against 84.2 MB)
    sliced = []

    class Items:
        def __len__(self):
            return 2 * pl.BATCH + 1

        def __getitem__(self, index):
            sliced.append(index)
            return list(range(len(self)))[index]

    it = pl.batches(Items())
    assert sliced == []
    assert next(it) == list(range(pl.BATCH)) and len(sliced) == 1
    assert [len(batch) for batch in it] == [pl.BATCH, 1] and len(sliced) == 3


def test_each_stage_decays_its_learning_rate_once(tmp_path, monkeypatch):
    # stage 1 at decay_epoch_maen, over three epochs so that a second decay at epoch 2
    # would show; stages 2 and 3 run at the decayed rate from their first step
    cfg = tiny_config(train_count=20, test_count=4, epochs_maen=3, epochs_rpn=3,
                      epochs_heads=3, decay_epoch_maen=1)
    sd.generate_dataset(cfg.gen, tmp_path)
    view = sd.TrainView(os.path.join(tmp_path, "train"))
    rates = {}  # optimizer -> the learning rate of each of its steps
    real = ad.SGD.step

    def recording(self):
        rates.setdefault(self, []).append(self.learning_rate)
        real(self)

    monkeypatch.setattr(ad.SGD, "step", recording)
    pl.train_stagewise(view, cfg)
    n, tc = len(view), cfg.train
    # stage 1, stage 2, then one optimizer per stage-3 level
    steps_per_epoch = [math.ceil(n / tc.batch_maen), n] + [n] * len(cfg.backbone.tap_levels)
    decayed = tc.learning_rate / tc.decay_factor
    assert [len(r) for r in rates.values()] == [3 * k for k in steps_per_epoch]
    maen, *later = rates.values()
    assert maen == [tc.learning_rate] * steps_per_epoch[0] + [decayed] * (2 * steps_per_epoch[0])
    assert all(r == [decayed] * len(r) for r in later)


def test_stage3_proposals_equal_per_image_propose(tiny_setup, monkeypatch):
    view, cfg, model = tiny_setup.view, tiny_setup.config, tiny_setup.model
    table = pl.pseudo_box_table(view, cfg, model.maen)
    assert len(table) > pl.BATCH and len(table) % pl.BATCH  # a short last batch
    want = [rpn.propose(*(t.data for t in rpn.rpn_forward(model.rpn_params, late, cfg.anchor)),
                        model.anchors, cfg.anchor, cfg.backbone.input_size) for _, late in table]
    used = []
    real = hd.head_targets

    def recording(proposals, box, label, *rest):
        used.append((proposals.shape, proposals.tobytes(), box.tobytes(), label))
        return real(proposals, box, label, *rest)

    monkeypatch.setattr(hd, "head_targets", recording)
    pl.train_heads(view, cfg, table, model.dln)
    expected = Counter((p.shape, p.tobytes(), box.tobytes(), int(label))
                       for (boxes, _), p, label in zip(table, want, view.labels)
                       for box in boxes)
    epochs = cfg.train.epochs_heads
    assert Counter(used) == Counter({k: v * epochs for k, v in expected.items()})


def test_log_format_and_stage_ordering(tiny_setup):
    stages = []
    for line in tiny_setup.log:
        m = LOG_RE.match(line)
        assert m, f"malformed log line: {line!r}"
        stages.append(int(m.group(1)))
    assert stages == sorted(stages)
    assert set(stages) == {1, 2, 3}
    cfg = tiny_setup.config.train
    assert stages.count(1) == cfg.epochs_maen
    assert stages.count(2) == cfg.epochs_rpn
    assert stages.count(3) == cfg.epochs_heads


def test_rejects_single_class_dataset(tmp_path):
    cfg = tiny_config()
    sd.generate_dataset(cfg.gen, tmp_path)
    view = sd.TrainView(os.path.join(tmp_path, "train"))
    view.labels[...] = 0
    with pytest.raises(ValueError, match="2 classes"):
        pl.train_stagewise(view, cfg)


def test_rejects_a_split_with_one_label_value(tmp_path):
    # one class, even when its label is not 0
    cfg = tiny_config()
    sd.generate_dataset(cfg.gen, tmp_path)
    view = sd.TrainView(os.path.join(tmp_path, "train"))
    view.labels[...] = 1
    with pytest.raises(ValueError, match="at least 2 classes, found 1"):
        pl.train_stagewise(view, cfg)


def test_same_seed_gives_identical_checkpoints(tmp_path):
    cfg = tiny_config(train_count=20, test_count=4)
    data = tmp_path / "d"
    sd.generate_dataset(cfg.gen, data)
    view = sd.TrainView(os.path.join(data, "train"))
    m1 = pl.train_stagewise(view, cfg)
    m2 = pl.train_stagewise(view, cfg)
    for a, b in ((m1.maen, m2.maen), (m1.dln, m2.dln),
                 *[(m1.heads[l], m2.heads[l]) for l in m1.levels]):
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name


def test_training_makes_one_trunk_pass_per_image_after_stage1(tmp_path, monkeypatch):
    cfg = tiny_config(train_count=20, test_count=4)
    sd.generate_dataset(cfg.gen, tmp_path)
    view = sd.TrainView(os.path.join(tmp_path, "train"))
    passes = _trunk_passes(monkeypatch)
    pl.train_stagewise(view, cfg)
    n, tc = len(view), cfg.train
    assert len(passes) == tc.epochs_maen * math.ceil(n / tc.batch_maen) + n


def test_evaluate_makes_one_trunk_pass_per_image(tiny_setup, monkeypatch):
    test_dir = os.path.join(tiny_setup.data, "test")
    passes = _trunk_passes(monkeypatch)
    ev.evaluate_model(tiny_setup.model, test_dir)
    assert len(passes) == len(sd.TrainView(test_dir))


def test_paired_localization_figures_follow_per_image_iou(tiny_setup):
    model = tiny_setup.model
    test_dir = os.path.join(tiny_setup.data, "test")
    view = sd.TrainView(test_dir)
    annotations = sd.load_annotations(test_dir)
    report = ev.evaluate_model(model, test_dir)
    dln = {level: [] for level in model.levels}
    maen = {level: [] for level in model.levels}
    for name, image in zip(view.filenames, view.images):
        gt = annotations[name].object_box
        pred = pl.infer(image, model)
        boxes, _ = att.pseudo_boxes_batch([image], model.maen_params, model.config.backbone)[0]
        for level, box in zip(model.levels, boxes):
            dln[level].append(rpn.iou(pred.per_level[level].box, gt))
            maen[level].append(rpn.iou(Box(*box), gt))
    n = len(view)
    for level in model.levels:
        assert report.dln_localization[level] == sum(v > 0.5 for v in dln[level]) / n
        assert report.maen_localization[level] == sum(v > 0.5 for v in maen[level]) / n
        assert abs(report.dln_mean_iou[level] - sum(dln[level]) / n) < 1e-12
        assert abs(report.maen_mean_iou[level] - sum(maen[level]) / n) < 1e-12
    pairs = list(zip(dln["cam"], maen["cam"]))
    assert report.dln_only_localized == sum(d > 0.5 >= m for d, m in pairs)
    assert report.maen_only_localized == sum(m > 0.5 >= d for d, m in pairs)


def _assert_same_prediction(got, want):
    """Bit for bit: fused and full-image vectors, class, per-level boxes and scores."""
    assert got.fused.tobytes() == want.fused.tobytes()
    assert got.full_image_scores.tobytes() == want.full_image_scores.tobytes()
    assert got.predicted_class == want.predicted_class
    assert list(got.per_level) == list(want.per_level)
    for level, lp in want.per_level.items():
        assert np.asarray(got.per_level[level].box).tobytes() == np.asarray(lp.box).tobytes()
        assert got.per_level[level].scores.tobytes() == lp.scores.tobytes()


def test_batched_evaluation_equals_per_image_path(tiny_setup, monkeypatch):
    model, bc = tiny_setup.model, tiny_setup.config.backbone
    test_dir = os.path.join(tiny_setup.data, "test")
    images = sd.TrainView(test_dir).images
    assert len(images) > pl.BATCH and len(images) % pl.BATCH  # a short last batch

    # image 5 gets no proposals, so its RoI table is the whole-image box twice
    no_proposals, _ = rpn.rpn_forward(model.rpn_params, pl._trunk(images[5], model),
                                      model.config.anchor)
    real_propose, real_pool = rpn.propose, hd.roi_pool_batch
    pooled_rows = []

    def propose(probs, *rest):
        if np.array_equal(probs, no_proposals.data):
            return np.empty((0, 4))
        return real_propose(probs, *rest)

    def roi_pool_batch(features, rois, *rest):
        pooled_rows.append(len(rois))
        return real_pool(features, rois, *rest)

    monkeypatch.setattr(rpn, "propose", propose)
    monkeypatch.setattr(hd, "roi_pool_batch", roi_pool_batch)

    reference = [pl.infer(img, model) for img in images]
    reference_boxes = [att.pseudo_boxes_batch([img], model.maen_params, bc)[0][0] for img in images]
    assert pooled_rows[5] == 2 and min(pooled_rows[:5] + pooled_rows[6:]) > 2

    batched, attended = [], []
    real_infer, real_attend = pl._infer, att.pseudo_boxes_batch

    def recording_infer(m, groups):
        batched.extend(real_infer(m, groups))
        return batched[-len(groups):]

    def recording_attend(imgs, *rest):
        attended.extend(real_attend(imgs, *rest))
        return attended[-len(imgs):]

    monkeypatch.setattr(pl, "_infer", recording_infer)
    monkeypatch.setattr(att, "pseudo_boxes_batch", recording_attend)
    report = ev.evaluate_model(model, test_dir).to_json()
    assert len(batched) == len(attended) == len(images)
    for got, want in zip(batched, reference):
        _assert_same_prediction(got, want)
    for (boxes, _), want in zip(attended, reference_boxes):
        assert np.array_equal(boxes, want)
    for got, want in zip(pl.infer_batch(images, model), reference):
        _assert_same_prediction(got, want)

    monkeypatch.setattr(pl, "BATCH", 1)
    assert ev.evaluate_model(model, test_dir).to_json() == report


def test_training_never_reads_annotations(tmp_path, monkeypatch):
    cfg = tiny_config(train_count=20, test_count=4)
    data = tmp_path / "d"
    sd.generate_dataset(cfg.gen, data)
    os.remove(os.path.join(data, "train", "annotations.tsv"))  # gone entirely

    real_open = builtins.open

    def guard(file, *args, **kwargs):
        if "annotations" in str(file):
            raise AssertionError(f"training path touched annotations: {file}")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guard)
    view = sd.TrainView(os.path.join(data, "train"))
    model = pl.train_stagewise(view, cfg)
    monkeypatch.undo()
    assert model.maen.params


def test_infer_contract(tiny_setup, monkeypatch):
    model = tiny_setup.model
    cfg = tiny_setup.config
    test_view = sd.TrainView(os.path.join(tiny_setup.data, "test"))

    passes = _trunk_passes(monkeypatch)
    preds = [pl.infer(img, model) for img in test_view.images]
    assert len(passes) == len(test_view)  # one shared pass per image

    c = cfg.backbone.num_classes
    h, w = cfg.backbone.input_size
    for pred in preds:
        assert set(pred.per_level) == set(cfg.backbone.tap_levels)
        assert abs(pred.fused.sum() - 1.0) < 1e-6
        assert abs(pred.full_image_scores.sum() - 1.0) < 1e-6
        assert 0 <= pred.predicted_class < c
        for lp in pred.per_level.values():
            assert abs(lp.scores.sum() - 1.0) < 1e-6
            assert 0.0 <= lp.box.x_min < lp.box.x_max <= w
            assert 0.0 <= lp.box.y_min < lp.box.y_max <= h


def test_infer_rejects_nan_pixel(tiny_setup):
    img = sd.TrainView(os.path.join(tiny_setup.data, "test")).images[0].copy()
    img[1, 20, 30] = np.nan
    with pytest.raises(ValueError, match=r"pixel values must lie in \[0,1\]"):
        pl.infer(img, tiny_setup.model)


def test_infer_deterministic(tiny_setup):
    img = sd.TrainView(os.path.join(tiny_setup.data, "test")).images[0]
    a = pl.infer(img, tiny_setup.model)
    b = pl.infer(img, tiny_setup.model)
    assert np.array_equal(a.fused, b.fused)
    assert a.predicted_class == b.predicted_class


def test_infer_separate_matches_shared(tiny_setup, monkeypatch):
    model = tiny_setup.model
    test_view = sd.TrainView(os.path.join(tiny_setup.data, "test"))
    for img in test_view.images:  # one trunk pass per level computes the same map bit for bit
        _assert_same_prediction(pl.infer_separate(img, model), pl.infer(img, model))
    passes = _trunk_passes(monkeypatch)
    pl.infer_separate(test_view.images[0], model)
    assert len(passes) == len(model.levels)


def test_boxes_are_built_only_for_predictions(tiny_setup, monkeypatch):
    model, cfg = tiny_setup.model, tiny_setup.config
    img = sd.TrainView(os.path.join(tiny_setup.data, "test")).images[0]
    boxes, late = att.pseudo_boxes_batch([img], model.maen_params, cfg.backbone)[0]
    pseudo = boxes[-1]
    built = _box_builds(monkeypatch)

    for run in (pl.infer, pl.infer_separate):
        pred = run(img, model)
        assert built == [pred.per_level[level].box for level in model.levels]
        built.clear()

    probs, deltas = rpn.rpn_forward(model.rpn_params, late, cfg.anchor)
    proposals = rpn.propose(probs.data, deltas.data, model.anchors, cfg.anchor,
                            cfg.backbone.input_size)
    rois, *_ = hd.head_targets(proposals, pseudo, 0, cfg.head, np.random.default_rng(0),
                               cfg.backbone.input_size)
    assert len(proposals) and rois.shape[1] == 4
    assert built == []


def test_a_refinement_collapsed_under_clipping_keeps_its_proposal(tiny_setup, monkeypatch):
    model, bg = tiny_setup.model, tiny_setup.config.head.background
    img = sd.TrainView(os.path.join(tiny_setup.data, "test")).images[0]
    real_pool, real_head = hd.roi_pool_batch, hd.head_forward
    tables, picked = [], []

    def roi_pool_batch(features, rois, *rest):
        tables.append(rois)
        return real_pool(features, rois, *rest)

    def head_forward(params, pooled, config):
        scores, deltas = real_head(params, pooled, config)
        # the last RoI is the whole image; the head picks among the proposals before it
        rois = tables[-1]
        picked.append(Box(*rois[int(np.argmax(1.0 - scores.data[:-1, bg]))]))
        squashed = deltas.data.copy()
        squashed[:, 2:] = -800.0  # exp(-800) is 0: every refined box has zero extent
        return scores, ad.Tensor(squashed)

    monkeypatch.setattr(hd, "roi_pool_batch", roi_pool_batch)
    monkeypatch.setattr(hd, "head_forward", head_forward)
    for run in (pl.infer, pl.infer_separate):
        picked.clear()
        pred = run(img, model)
        assert len(picked) == len(model.levels)
        assert [pred.per_level[level].box for level in model.levels] == picked


def test_single_level_reduces_to_region_plus_full_image(tmp_path, monkeypatch):
    cfg = tiny_config(train_count=20, test_count=4, tap_levels="cam")
    data = tmp_path / "d"
    sd.generate_dataset(cfg.gen, data)
    view = sd.TrainView(os.path.join(data, "train"))
    model = pl.train_stagewise(view, cfg)
    assert model.levels == ("cam",)
    img = sd.TrainView(os.path.join(data, "test")).images[0]
    pred = pl.infer(img, model)
    expected = (pred.per_level["cam"].scores + pred.full_image_scores) / 2.0
    assert np.allclose(pred.fused, expected)

    passes = _trunk_passes(monkeypatch)
    pl.infer(img, model)
    assert len(passes) == 1


def test_model_roundtrip(tiny_setup, tmp_path):
    out = tmp_path / "model"
    pl.save_model(tiny_setup.model, out)
    loaded = pl.load_model(out)
    img = sd.TrainView(os.path.join(tiny_setup.data, "test")).images[0]
    a = pl.infer(img, tiny_setup.model)
    b = pl.infer(img, loaded)
    assert np.array_equal(a.fused, b.fused)
    for name, arr in tiny_setup.model.dln.params.items():
        assert np.array_equal(loaded.dln.params[name], arr)


def test_inference_trunk_is_stage1_trunk(tiny_setup, monkeypatch):
    model = tiny_setup.model
    # the stage-2 checkpoint holds the proposal network and nothing else
    expected = rpn.init_rpn_params(tiny_setup.config.backbone.stage_channels[-1],
                                   tiny_setup.config.anchor, np.random.default_rng(0))
    assert set(model.dln.params) == set(expected)
    shared = [n for n in model.maen.params if n.startswith("stages.")]
    assert shared
    img = sd.TrainView(os.path.join(tiny_setup.data, "test")).images[0]
    passes = _trunk_passes(monkeypatch)
    pl.infer(img, model)
    pl.infer_separate(img, model)
    assert len(passes) == 1 + len(model.levels)
    for params in passes:
        for n in shared:
            assert np.array_equal(params[n].data, model.maen.params[n]), n


def _saved_model(tiny_setup, tmp_path):
    out = tmp_path / "model"
    pl.save_model(tiny_setup.model, out)
    return out


def test_save_model_removes_heads_of_levels_it_lacks(tiny_setup, tmp_path):
    out = _saved_model(tiny_setup, tmp_path)
    (out / "head_mid.ckpt").write_bytes((out / "head_late.ckpt").read_bytes())
    pl.save_model(tiny_setup.model, out)
    assert sorted(p.name for p in out.glob("head_*.ckpt")) == ["head_cam.ckpt", "head_late.ckpt"]


def test_loaded_model_maps_record_no_graph(tiny_setup, tmp_path):
    # no gradient reaches the shared map, so it leaves the trunk as a plain array
    model = pl.load_model(_saved_model(tiny_setup, tmp_path))
    image, bc = tiny_setup.view.images[0], model.config.backbone
    _, late = att.pseudo_boxes_batch([image], model.maen_params, bc)[0]
    for fmap in (pl._trunk(image, model), late):
        assert type(fmap) is np.ndarray
        assert fmap.shape == (1, bc.stage_channels[-1], *bc.grid_size)


@pytest.mark.parametrize("forward", ["stage_forward", "rpn_forward", "head_forward"])
def test_frozen_inputs_reject_a_tensor(tiny_setup, forward):
    # a gradient could not flow through a frozen input, so a Tensor there raises
    model, cfg = tiny_setup.model, tiny_setup.config
    bc, image = cfg.backbone, tiny_setup.view.images[0]
    late = pl._trunk(image, model)
    pooled = hd.roi_pool_batch(late[0], hd.roi_table(np.zeros((0, 4)), bc.input_size),
                               bc.tap_stride("late"), cfg.head.roi_out)
    array, call = {
        "stage_forward": (image[None], lambda x: bb.stage_forward(model.maen_params, x, bc)),
        "rpn_forward": (late, lambda x: rpn.rpn_forward(model.rpn_params, x, cfg.anchor)),
        "head_forward": (pooled, lambda x: hd.head_forward(model.head_params["cam"], x, cfg.head)),
    }[forward]
    call(array)
    with pytest.raises((TypeError, AttributeError), match="Tensor"):
        call(ad.Tensor(array, requires_grad=True))


def test_maen_pseudo_box_rejects_a_level_the_model_lacks(tiny_setup, monkeypatch):
    passes = _trunk_passes(monkeypatch)
    for level in ("mid", "bogus"):
        with pytest.raises(ValueError, match=rf"level '{level}' is not one of the model's "
                                             r"levels \('late', 'cam'\)"):
            pl.maen_pseudo_box(tiny_setup.view.images[0], tiny_setup.model, level)
    assert passes == []  # rejected before the classification-network pass


@pytest.mark.parametrize("copies, problem", [(0, "missing"), (2, "repeated")])
def test_load_model_rejects_a_config_without_every_key_once(tiny_setup, tmp_path, copies,
                                                             problem):
    # save_model writes every key once; a gap filled by a default can change the model
    out = _saved_model(tiny_setup, tmp_path)
    path = out / "model_config.txt"
    lines = []
    for line in path.read_text().splitlines():
        lines += [line] * (copies if line.startswith(("tap_levels =", "nms_iou =")) else 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: key 'tap_levels' is {problem}"):
        pl.load_model(out)


@pytest.mark.parametrize("name, param, value", [("maen.ckpt", "cam.fc.weight", np.nan),
                                                 ("dln.ckpt", "rpn.obj.weight", np.inf),
                                                 ("head_cam.ckpt", "head.cls.weight", -np.inf)])
def test_load_model_rejects_a_checkpoint_with_non_finite_values(tiny_setup, tmp_path, name,
                                                                param, value):
    # a NaN head gives NaN scores, a NaN proposal network no proposals: both quietly wrong
    out = _saved_model(tiny_setup, tmp_path)
    ckpt = bb.load_checkpoint(out / name)
    ckpt.params[param][1] = value
    bb.save_checkpoint(ckpt, out / name)
    with pytest.raises(ValueError, match=rf"{re.escape(str(out / name))}: parameter "
                                         rf"'{re.escape(param)}' holds non-finite values"):
        pl.load_model(out)


def test_train_stagewise_keeps_only_a_prefix_of_stages(tiny_setup):
    model = tiny_setup.model
    for trained in ((None, model.dln), (model.maen, model.dln, model.dln)):
        with pytest.raises(ValueError, match="maen checkpoint, then optionally a dln"):
            pl.train_stagewise(tiny_setup.view, tiny_setup.config, None, trained)


def test_load_model_rejects_old_layout_dln(tiny_setup, tmp_path):
    out = _saved_model(tiny_setup, tmp_path)
    dln = bb.load_checkpoint(out / "dln.ckpt")
    dln.params["stages.0.conv0.weight"] = tiny_setup.model.maen.params["stages.0.conv0.weight"]
    bb.save_checkpoint(dln, out / "dln.ckpt")
    with pytest.raises(ValueError, match=r"dln\.ckpt: unexpected parameter 'stages\.0\.conv0\.weight'"):
        pl.load_model(out)


def test_load_model_rejects_swapped_head_files(tiny_setup, tmp_path):
    out = _saved_model(tiny_setup, tmp_path)
    late, cam = (out / "head_late.ckpt").read_bytes(), (out / "head_cam.ckpt").read_bytes()
    (out / "head_late.ckpt").write_bytes(cam)
    (out / "head_cam.ckpt").write_bytes(late)
    with pytest.raises(ValueError, match=r"head_late\.ckpt: stage tag 'head\.cam', expected 'head\.late'"):
        pl.load_model(out)


def test_load_model_rejects_config_disagreeing_with_shapes(tiny_setup, tmp_path):
    out = _saved_model(tiny_setup, tmp_path)
    path = out / "model_config.txt"
    lines = path.read_text().splitlines()
    assert "num_classes = 3" in lines
    path.write_text("\n".join("num_classes = 4" if line == "num_classes = 3" else line
                              for line in lines) + "\n")
    with pytest.raises(ValueError, match=r"maen\.ckpt: parameter 'cam\.fc\.weight' has shape"):
        pl.load_model(out)
