"""Command-line entry point: gen-data | train | infer | eval | bench.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
``gen-data`` and ``train`` build a configuration (flag > config file >
default) and echo it into their output directory; ``infer``, ``eval`` and
``bench`` run the configuration saved with the model, and ``eval`` echoes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evaluate as ev
from . import pipeline as pl
from . import synthdata as sd
from .config import RunConfig, load_run_config


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors and expands no abbreviated option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p: _Parser, *names):
    if "data" in names:
        p.add_argument("--data", required=True, help="dataset root (holds train/ and test/)")
    if "out" in names:
        p.add_argument("--out", required=True, help="output directory")
    if "model" in names:
        p.add_argument("--model", required=True, help="trained model directory")


def _add_config(p: _Parser):
    p.add_argument("--seed", type=int, default=None, help="seed overriding config and defaults")
    p.add_argument("--config", default=None, help="key = value configuration file")
    p.add_argument("--levels", default=None,
                   help="comma list of attention tap levels (e.g. late,cam)")


def build_parser() -> _Parser:
    parser = _Parser(prog="wsdl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    _add_common(p, "out")
    _add_config(p)
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("train", help="train stage-wise on a dataset")
    _add_common(p, "data", "out")
    _add_config(p)
    p.add_argument("--stage", choices=("rpn", "heads", "all"), default="all",
                   help="first stage to train; every later stage is retrained, "
                        "earlier ones are loaded from --out")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("infer", help="classify and localize images")
    _add_common(p, "model")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--image", action="append", help="PPM image (repeatable)")
    source.add_argument("--data", help="dataset root; infers the test split")
    p.set_defaults(handler=_cmd_infer)

    p = sub.add_parser("eval", help="evaluate a trained model on the test split")
    _add_common(p, "data", "model", "out")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("bench", help="shared-pathway vs separate-network throughput")
    _add_common(p, "data", "model")
    p.set_defaults(handler=_cmd_bench)
    return parser


def _build_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config is not None else RunConfig.default()
    if args.seed is not None:
        config.set_key("seed", str(args.seed))
    if args.levels is not None:
        config.set_key("tap_levels", args.levels)
    config.sync_derived()
    return config


def _echo_config(config: RunConfig, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run_config.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config.to_lines())


def _cmd_gen_data(args) -> int:
    config = _build_config(args)
    sd.generate_dataset(config.gen, args.out)
    _echo_config(config, args.out)
    print(f"wrote {config.gen.train_count} train / {config.gen.test_count} test images to {args.out}")
    return 0


def _open_log(out_dir, first_stage: int):
    """``train_log.txt`` for a run from ``first_stage`` on, keeping only the
    records of the earlier stages, whose checkpoints the run keeps."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "train_log.txt")
    keep = tuple(f"stage={s} " for s in range(1, first_stage))
    kept = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            kept = [line for line in fh if line.startswith(keep)]
    log_file = open(path, "w", encoding="utf-8", newline="\n")
    log_file.writelines(kept)

    def log(line):
        print(line)
        log_file.write(line + "\n")
        log_file.flush()

    return log, log_file


def _cmd_train(args) -> int:
    config = _build_config(args)
    view = sd.TrainView(os.path.join(args.data, "train"))
    config.set_key("num_classes", str(view.num_classes))
    config.sync_derived()

    # the stages before --stage keep their checkpoints in --out
    kept = pl.load_checkpoints(args.out, config, {"rpn": 1, "heads": 2}.get(args.stage, 0))
    log, log_file = _open_log(args.out, len(kept) + 1)
    try:
        model = pl.train_stagewise(view, config, log, kept)
    finally:
        log_file.close()
    pl.save_model(model, args.out)
    return 0


def _prediction_json(name, pred) -> str:
    doc = {
        "file": name,
        "predicted_class": pred.predicted_class,
        "fused_scores": [float(v) for v in pred.fused],
        "levels": {
            level: {
                "box": list(np.asarray(lp.box)),
                "scores": [float(v) for v in lp.scores],
            }
            for level, lp in pred.per_level.items()
        },
    }
    return json.dumps(doc, sort_keys=True)


def _cmd_infer(args) -> int:
    model = pl.load_model(args.model)
    if args.image:
        names = args.image
        images = [sd.image_to_float(sd.read_ppm(path)) for path in names]
        size = model.config.backbone.input_size
        for path, image in zip(names, images):
            if image.shape[1:] != size:
                raise ValueError(f"{path}: image extent {image.shape[1:]} does not match config {size}")
    else:
        view = sd.TrainView(os.path.join(args.data, "test"))
        names, images = view.filenames, view.images
    for name, pred in zip(names, pl.infer_batch(images, model), strict=True):
        print(_prediction_json(name, pred))
    return 0


def _cmd_eval(args) -> int:
    model = pl.load_model(args.model)
    report = ev.evaluate_model(model, os.path.join(args.data, "test"))
    ev.write_report(report, args.out)
    _echo_config(model.config, args.out)
    print(report.to_json(), end="")
    return 0


def _cmd_bench(args) -> int:
    model = pl.load_model(args.model)
    view = sd.TrainView(os.path.join(args.data, "test"))
    result = {mode: ev.bench(model, view.images[:], mode) for mode in ("shared", "separate")}
    result["ratio"] = result["shared"] / result["separate"]
    print(json.dumps(result, sort_keys=True))
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message: print the message itself
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}",
              file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
