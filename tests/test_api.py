"""The public surface: every exported name exists, and the README's library
example runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import mmuq

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [
        f"mmuq.{info.name}.{name}"
        for info in pkgutil.iter_modules(mmuq.__path__)
        for module in [importlib.import_module(f"mmuq.{info.name}")]
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing


def test_readme_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block, "no python block in the README's Library section"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["chain"].samples.shape[1] == 2
