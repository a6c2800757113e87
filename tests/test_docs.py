"""Documentation accuracy: the README's Python snippets must run.

Docs that silently rot are worse than no docs; this test executes every
fenced ``python`` block in the README in one shared namespace (they build
on each other) and checks the claimed outputs.  It also checks that every
dotted ``repro.…`` name the docs quote in backticks still names code.
"""

import importlib
import re
from pathlib import Path


README = Path(__file__).resolve().parent.parent / "README.md"

#: Docs whose backticked ``repro.…`` names must import.
NAMING_DOCS = ("docs/PAPER_MAP.md", "DESIGN.md", "README.md",
               "docs/TUTORIAL.md")


def _quoted_names(text: str) -> set[str]:
    """Dotted ``repro.…`` names inside inline code spans of *text*."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        names.update(re.findall(r"(?<![\w./])repro(?:\.\w+)+", span))
    return names


def _resolves(name: str) -> bool:
    """Whether *name* imports as a module or as an attribute of one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, re.S)


class TestReadme:
    def test_python_snippets_execute(self, capsys):
        blocks = _python_blocks(README.read_text())
        assert blocks, "README should contain python examples"
        namespace: dict = {}
        for block in blocks:
            exec(block, namespace)  # noqa: S102 - executing our own docs
        out = capsys.readouterr().out
        # The quickstart's documented outputs.
        assert "{ιP(B)}" in out
        assert "δR(B)" in out

    def test_examples_listed_exist(self):
        text = README.read_text()
        for match in re.findall(r"`(\w+\.py)`", text):
            assert (README.parent / "examples" / match).exists(), match

    def test_docs_files_exist(self):
        for relative in ("docs/TUTORIAL.md", "docs/PAPER_MAP.md",
                         "DESIGN.md", "EXPERIMENTS.md"):
            assert (README.parent / relative).exists(), relative


class TestDocsNameCode:
    def test_quoted_repro_names_import(self):
        checked = 0
        for relative in NAMING_DOCS:
            names = _quoted_names((README.parent / relative).read_text())
            missing = sorted(n for n in names if not _resolves(n))
            assert not missing, f"{relative} names missing code: {missing}"
            checked += len(names)
        assert checked > 50  # the docs quote plenty; the scan must see them

    def test_a_missing_name_is_caught(self):
        names = _quoted_names(
            "`repro.datalog.evaluation` and `repro.core.nowhere`\n"
            "```python\nimport repro.fenced.away\n```\n")
        assert names == {"repro.datalog.evaluation", "repro.core.nowhere"}
        assert _resolves("repro.datalog.evaluation.BottomUpEvaluator")
        assert not _resolves("repro.core.nowhere")
        assert not _resolves("repro.datalog.evaluation.NoSuchThing")
