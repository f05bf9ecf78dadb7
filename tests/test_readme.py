"""The documented API: README's python examples run, and every name a
package exports resolves."""

import importlib
import re
from pathlib import Path

import pytest

README = (Path(__file__).parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
PACKAGES = ["mrdikit", "mrdikit.algebra", "mrdikit.ipc", "mrdikit.mrdi", "mrdikit.workloads"]


def test_readme_has_the_two_examples():
    assert len(PYTHON_BLOCKS) == 2
    assert "from mrdikit import *" in PYTHON_BLOCKS[0]
    assert "spawn_pool(4)" in PYTHON_BLOCKS[1]


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_example_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
