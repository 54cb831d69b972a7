"""Flat ``key = value`` configuration shared by the CLI and model snapshots.

One RunConfig bundles the generator, training, backbone, anchor, and head
configurations. Keys form the union of their field names; assigning a key
updates every sub-configuration that carries the field, so e.g.
``num_classes`` stays consistent across the generator, the backbone, and
the heads. Unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .backbone import BackboneConfig
from .heads import HeadConfig
from .rpn import AnchorConfig
from .synthdata import GenConfig

# glyphs is structured, not one line; sync_derived computes input_size and stride
_EXCLUDED_FIELDS = {"glyphs", "input_size", "stride"}


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
    decay_factor: float = 10.0   # learning rate divides by this once per stage
    decay_epoch_maen: int = 20   # 0-based epoch at which the decay applies
    decay_epoch_rpn: int = 0     # stages 2-3 fine-tune; epoch-0 decay puts them at lr/10
    decay_epoch_heads: int = 0

    def __post_init__(self):
        for key in ("learning_rate", "decay_factor"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for key in ("batch_maen", "epochs_maen", "epochs_rpn", "epochs_heads"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("seed", "decay_epoch_maen", "decay_epoch_rpn", "decay_epoch_heads"):
            if getattr(self, key) < 0:  # a decay epoch past the stage's last is legal: no decay
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")


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
        return cls(GenConfig(), TrainConfig(), BackboneConfig(), AnchorConfig(), HeadConfig())

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
        hit = False
        for sub in self.subconfigs():
            names = {f.name for f in fields(sub)}
            if key in names and key not in _EXCLUDED_FIELDS:
                if not hit:
                    parsed = _parse_like(getattr(sub, key), raw)
                setattr(sub, key, parsed)
                hit = True
        if not hit:
            raise KeyError(f"unknown configuration key: {key!r}")

    def sync_derived(self):
        """Derive ``input_size`` from ``image_size`` and ``stride`` from
        ``stage_channels``, share ``num_classes``, and re-run validation."""
        self.backbone.input_size = self.gen.image_size
        self.backbone.num_classes = self.gen.num_classes
        self.head.num_classes = self.gen.num_classes
        self.backbone = replace(self.backbone)
        self.anchor.stride = self.backbone.tap_stride("late")
        self.gen = replace(self.gen)
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
                raise ValueError(f"{source}:{line_no}: bad value for {key!r}: {exc}") from exc
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
