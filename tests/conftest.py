import os
from types import SimpleNamespace

import pytest

from wsdl import pipeline as pl
from wsdl import synthdata as sd
from wsdl.config import RunConfig

# PASS/FAIL lines of the acceptance criteria, in the order they ran; shown in
# the terminal summary so that a passing run prints its figures too
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def tiny_config(**overrides) -> RunConfig:
    """A fast 3-class configuration for contract tests (accuracy irrelevant)."""
    cfg = RunConfig.default()
    cfg.gen.num_classes = 3
    cfg.gen.train_count = 30
    cfg.gen.test_count = 12
    cfg.gen.seed = 13
    cfg.train.seed = 13
    cfg.train.epochs_maen = 2
    cfg.train.epochs_rpn = 1
    cfg.train.epochs_heads = 1
    for key, value in overrides.items():
        cfg.set_key(key, str(value))
    cfg.sync_derived()
    return cfg


@pytest.fixture(scope="session")
def tiny_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_model")
    cfg = tiny_config()
    data = os.path.join(root, "data")
    sd.generate_dataset(cfg.gen, data)
    view = sd.TrainView(os.path.join(data, "train"))
    log = []
    model = pl.train_stagewise(view, cfg, log.append)
    return SimpleNamespace(root=root, config=cfg, data=data, view=view,
                           model=model, log=log)
