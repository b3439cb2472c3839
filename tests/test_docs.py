"""Documentation stays executable: run the tutorial's code blocks and
check the README's claims against the codebase."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestTutorial:
    def test_all_python_blocks_execute(self):
        text = (REPO_ROOT / "docs" / "TUTORIAL.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) >= 5
        code = "\n".join(blocks)
        exec(compile(code, "TUTORIAL.md", "exec"), {})


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self) -> str:
        return (REPO_ROOT / "README.md").read_text()

    def test_quickstart_block_executes(self, readme):
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README needs at least one python block"
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)

    def test_referenced_examples_exist(self, readme):
        for match in re.findall(r"`examples/(\w+\.py)`", readme):
            assert (REPO_ROOT / "examples" / match).exists(), match

    def test_referenced_documents_exist(self, readme):
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert name in readme
            assert (REPO_ROOT / name).exists()


class TestDesignDoc:
    def test_listed_modules_exist(self):
        """Every `something.py` named in DESIGN.md's module map exists."""
        text = (REPO_ROOT / "DESIGN.md").read_text()
        block = re.search(r"```\nsrc/repro/\n(.*?)```", text, re.S)
        assert block is not None
        current_package = None
        for line in block.group(1).splitlines():
            package = re.match(r"  (\w+)/\s*$", line)
            if package:
                current_package = package.group(1)
                continue
            module = re.match(r"    (\w+\.py)", line)
            if module and current_package:
                path = REPO_ROOT / "src" / "repro" / current_package / module.group(1)
                assert path.exists(), f"DESIGN.md names missing module {path}"


class TestTestingDoc:
    def test_every_registered_check_is_named(self):
        from repro.verify.runner import CHECKS

        text = (REPO_ROOT / "docs" / "TESTING.md").read_text()
        missing = [name for name in CHECKS if f"`{name}`" not in text]
        assert not missing, f"docs/TESTING.md does not name {missing}"


class TestApiDoc:
    def test_listed_top_level_names_exist(self):
        """Every backticked name in API.md's top-level table resolves."""
        import repro

        text = (REPO_ROOT / "docs" / "API.md").read_text()
        section = text.split("## Top level")[1].split("## ")[0]
        for match in re.findall(r"\| `(\w+)", section):
            assert hasattr(repro, match), f"API.md lists missing repro.{match}"

    def test_listed_packages_importable(self):
        import importlib

        text = (REPO_ROOT / "docs" / "API.md").read_text()
        for package in re.findall(r"## `(repro[\w.]*)`", text):
            importlib.import_module(package)
