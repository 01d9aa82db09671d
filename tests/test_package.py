"""The package surface: exported names and README's library example."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = (
    "tripsem", "tripsem.analysis", "tripsem.cli", "tripsem.composition",
    "tripsem.core", "tripsem.lexicon", "tripsem.numerics", "tripsem.treeio",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_readme_library_block_runs_from_the_repository_root(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["root"].layout == namespace["layout"]
    assert namespace["not_blue"].layout == namespace["layout"]
