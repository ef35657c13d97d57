"""The README's examples still match the code.

The run-config example must load with ``load_config``, and every name the
library example imports from the package, every ``name.attr`` it reads from
one and every keyword it passes when calling one must exist, as
``tests/test_demos.py`` checks for the demos.
"""

import importlib
import json
import re
from pathlib import Path

import numpy as np

from normdescent import Dataset, save_dataset, save_matrix
from normdescent.harness import load_config
from tests.test_demos import package_imports, unresolved_uses

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(lang: str) -> str:
    """The README's one fenced block of ``lang``."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, f"expected one {lang} block in the README, found {len(blocks)}"
    return blocks[0]


def test_config_example_loads(tmp_path, monkeypatch):
    text = code_block("json")
    raw = json.loads(text)
    monkeypatch.chdir(tmp_path)  # the example's file names are relative
    k, d, n = 3, 2, 60  # n divisible by the example's batch_size 20
    x = np.random.default_rng(0).standard_normal((d, n))
    save_dataset(Dataset(x, np.arange(n) % k, k), raw["dataset_path"])
    save_matrix(np.zeros((k, d)), raw["wstar_path"])
    (tmp_path / "run.json").write_text(text, encoding="utf-8")
    cfg = load_config("run.json")
    assert str(cfg.opt.norm) == raw["norm"] and cfg.opt.loss == raw["loss"]
    assert str(cfg.wbar_norm) == raw["wbar_norm"]
    assert cfg.opt.batch_size == raw["batch_size"] and cfg.dataset.n == n
    assert cfg.gamma == raw["gamma"] and cfg.wstar.shape == (k, d)


def test_library_example_names_resolve(tmp_path):
    example = tmp_path / "example.py"
    example.write_text(code_block("python"), encoding="utf-8")
    names = package_imports(example)
    assert names, "the library example imports nothing from the package"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert unresolved_uses(example) == []
