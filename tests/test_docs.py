"""The documentation must run: execute every Python snippet in README/docs.

Each ``python``-fenced code block in ``README.md`` and ``docs/*.md`` is
extracted and executed.  Blocks within one document share a namespace, in
order, so later snippets may build on earlier ones (the README's serving
snippet reuses the quickstart's model).  Non-Python fences (``bash``,
``text``) are ignored.  Every dotted ``repro.…`` name in those documents
and in the ``src/`` docstrings must name an importable object.  The
``Quickstart::`` blocks of the ``repro`` and ``repro.runtime`` package
docstrings run as written.
"""

from __future__ import annotations

import ast
import importlib
import itertools
import re
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

#: Package docstrings whose ``Quickstart::`` block is executed.
QUICKSTARTS = [
    REPO_ROOT / "src" / "repro" / "__init__.py",
    REPO_ROOT / "src" / "repro" / "runtime" / "__init__.py",
]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: Path) -> list[str]:
    """The document's ``python``-fenced code blocks, in order."""
    return _FENCE.findall(path.read_text(encoding="utf-8"))


def test_documents_exist_and_have_snippets():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "experiments.md").is_file()
    assert python_blocks(REPO_ROOT / "README.md"), "README lost its snippets"


@pytest.mark.parametrize("document", DOCUMENTS, ids=[path.name for path in DOCUMENTS])
def test_snippets_execute(document):
    blocks = python_blocks(document)
    if not blocks:
        pytest.skip(f"{document.name} has no python snippets")
    namespace: dict = {"__name__": f"docs_snippet_{document.stem}"}
    for index, block in enumerate(blocks):
        try:
            exec(compile(block, f"{document.name}[snippet {index}]", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(f"{document.name} snippet {index} failed: {error!r}\n{block}")


def quickstart_block(path: Path) -> str:
    """The indented literal block after ``Quickstart::`` in a module docstring."""
    doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8")))
    _, marker, rest = doc.partition("Quickstart::\n")
    assert marker, f"{path.name} has no Quickstart:: block"
    lines = rest.splitlines()
    block = itertools.takewhile(lambda line: not line or line[0] == " ", lines)
    return textwrap.dedent("\n".join(block))


@pytest.mark.parametrize(
    "module", QUICKSTARTS, ids=[str(p.relative_to(REPO_ROOT)) for p in QUICKSTARTS]
)
def test_package_quickstart_runs(module):
    source = quickstart_block(module)
    namespace: dict = {"__name__": "quickstart"}
    exec(compile(source, f"{module.name} Quickstart", "exec"), namespace)


def test_readme_links_resolve():
    """Relative markdown links in the README point at real files."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for target in re.findall(r"\]\((?!https?://)([^)#]+)\)", text):
        assert (REPO_ROOT / target).exists(), f"broken README link: {target}"


_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _docstrings(path: Path) -> list[str]:
    """The module, class and function docstrings of one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        doc
        for node in ast.walk(tree)
        if isinstance(node, kinds) and (doc := ast.get_docstring(node))
    ]


def _resolve(dotted: str) -> None:
    """Import the longest module prefix of ``dotted``; ``getattr`` the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            if not f"{module_name}.".startswith(f"{error.name}."):
                raise  # a missing dependency, not a shorter module path
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return


def test_dotted_repro_names_resolve():
    """Every ``repro.x.y`` name in the docs and docstrings names a real object."""
    sources = {path: [path.read_text(encoding="utf-8")] for path in DOCUMENTS}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        sources[path] = _docstrings(path)
    broken = []
    for path, texts in sources.items():
        names = {name for text in texts for name in _DOTTED.findall(text)}
        for dotted in sorted(names):
            try:
                _resolve(dotted)
            except (ImportError, AttributeError) as error:
                broken.append(f"{path.relative_to(REPO_ROOT)}: {dotted} ({error})")
    assert not broken, "stale cross-references:\n" + "\n".join(broken)
