"""Flat ``key = value`` configuration shared by the CLI and model snapshots.

One RunConfig bundles the generator, training, backbone, anchor, and head
configurations. Keys form the union of their field names; assigning a key
updates every sub-configuration that carries the field, so e.g.
``num_classes`` stays consistent across the generator, the backbone, and
the heads. Unknown keys are rejected, and ``RANGES`` bounds each numeric key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# sync_derived computes input_size and stride
_EXCLUDED_FIELDS = {"input_size", "stride"}

# key -> the range allowed for its value, or for every entry of a tuple key; checks that
# span keys or fix a tuple's length stay in the sub-configs' __post_init__s
RANGES = {key: rule for rule, keys in {
    ">= 0": "decay_epoch_maen loss_balance seed test_count train_count weight_decay",
    ">= 1": "anchors_per_image_sampled batch_maen cam_channels epochs_heads epochs_maen "
            "epochs_rpn hidden image_size post_nms_top pre_nms_top roi_out rois_per_image "
            "rpn_channels stage_channels",
    ">= 2": "num_classes", "> 0": "decay_factor learning_rate", "positive": "ratios scales",
    "in [0, 1]": "fg_fraction nms_iou", "in [0, 1)": "momentum neg_iou",
    "in (0, 1]": "fg_iou pos_iou",
}.items() for key in keys.split()}


def _inside(rule: str, v) -> bool:
    """Whether ``v`` satisfies ``rule``; a NaN fails every comparison, so every rule."""
    op, _, bound = ("> 0" if rule == "positive" else rule).partition(" ")
    if op != "in":
        return v >= float(bound) if op == ">=" else v > float(bound)
    lo, hi = (float(b) for b in bound[1:-1].split(", "))
    return (lo < v if bound[0] == "(" else lo <= v) and (v < hi if bound[-1] == ")" else v <= hi)


def check_ranges(sub):
    """Raise ``ValueError`` naming the first field of ``sub`` outside its ``RANGES``
    rule; every entry of a tuple must satisfy it."""
    for f in fields(sub):
        rule, value = RANGES.get(f.name), getattr(sub, f.name)
        if rule and not all(_inside(rule, v) for v in (
                value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{f.name} must be {rule}, got {value}")


@dataclass
class TrainConfig:
    """Stage-wise schedule; all randomness hangs off the one seed."""

    seed: int = 7
    epochs_maen: int = 25
    epochs_rpn: int = 10
    epochs_heads: int = 10
    batch_maen: int = 20
    learning_rate: float = 0.02  # from-scratch training; fine-tuning setups use far less
    momentum: float = 0.9
    weight_decay: float = 0.0005
    decay_factor: float = 10.0   # stage 1 divides its rate by this once; stages 2-3 run at lr/this
    decay_epoch_maen: int = 20   # 0-based epoch of stage 1's decay; none if past the last

    def __post_init__(self):
        check_ranges(self)


def _parse_like(template, raw: str):
    raw = raw.strip()
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    if isinstance(template, tuple):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected a comma-separated list")
        elem = template[0] if template else ""
        return tuple(_parse_like(elem, p) for p in parts)
    return raw


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class RunConfig:
    gen: GenConfig
    train: TrainConfig
    backbone: BackboneConfig
    anchor: AnchorConfig
    head: HeadConfig

    @classmethod
    def default(cls) -> "RunConfig":
        from . import backbone, heads, rpn, synthdata  # not at the top: each imports check_ranges
        return cls(synthdata.GenConfig(), TrainConfig(), backbone.BackboneConfig(),
                   rpn.AnchorConfig(), heads.HeadConfig())

    def subconfigs(self):
        return (self.gen, self.train, self.backbone, self.anchor, self.head)

    def schema(self) -> dict:
        """key -> template value (from the first sub-config carrying the field)."""
        out = {}
        for sub in self.subconfigs():
            for f in fields(sub):
                if f.name in _EXCLUDED_FIELDS or f.name in out:
                    continue
                out[f.name] = getattr(sub, f.name)
        return out

    def set_key(self, key: str, raw: str):
        """Parse and assign one key across every sub-config carrying it."""
        holders = [sub for sub in self.subconfigs() if key in {f.name for f in fields(sub)}]
        if not holders or key in _EXCLUDED_FIELDS:
            raise KeyError(f"unknown configuration key: {key!r}")
        try:
            parsed = _parse_like(getattr(holders[0], key), raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {exc}") from exc
        for sub in holders:
            setattr(sub, key, parsed)

    def sync_derived(self):
        """Derive ``input_size`` from ``image_size`` and ``stride`` from
        ``stage_channels``, share ``num_classes``, and re-run validation."""
        self.gen = replace(self.gen)  # first: image_size's own errors before the stride's
        self.backbone.input_size = self.gen.image_size
        self.backbone.num_classes = self.gen.num_classes
        self.head.num_classes = self.gen.num_classes
        self.backbone = replace(self.backbone)
        self.anchor.stride = self.backbone.tap_stride("late")
        self.train = replace(self.train)
        self.anchor = replace(self.anchor)
        self.head = replace(self.head)

    def to_lines(self) -> str:
        schema = self.schema()
        return "".join(f"{key} = {_format_value(schema[key])}\n" for key in sorted(schema))

    def apply_text(self, text: str, source: str = "<config>") -> list:
        """Set each ``key = value`` line of ``text``; returns the keys set, in
        order. A repeated key raises, naming the first in schema order."""
        keys = []
        for line_no, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{source}:{line_no}: expected 'key = value', got {line!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            try:
                self.set_key(key, raw)
            except KeyError as exc:
                raise KeyError(f"{source}:{line_no}: {exc.args[0]}") from exc
            except ValueError as exc:
                raise ValueError(f"{source}:{line_no}: {exc}") from exc
            keys.append(key)
        for key in self.schema():
            if keys.count(key) > 1:
                raise ValueError(f"{source}: key {key!r} is repeated")
        return keys


def load_run_config(path) -> RunConfig:
    cfg = RunConfig.default()
    with open(path, encoding="utf-8") as fh:
        cfg.apply_text(fh.read(), source=str(path))
    try:
        cfg.sync_derived()
    except ValueError as exc:  # a check across keys, or within one, such as anchor scales
        raise ValueError(f"{path}: {exc}") from exc
    return cfg
