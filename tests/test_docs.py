"""Documentation guarantees: doctests can't rot, links can't dangle.

Two halves:

* the public façade's docstring examples (``CoreService``,
  ``Transaction``, ``Batch``, ``make_engine``) run as doctests — the
  same modules CI also runs under ``pytest --doctest-modules``;
* every relative markdown link in README.md, ROADMAP.md and docs/ must
  point at a file that exists, and README must link the documentation
  suite.
"""

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: The public-façade modules whose examples are part of the contract.
FACADE_MODULES = (
    "repro.engine.batch",
    "repro.engine.registry",
    "repro.service.session",
    "repro.service.transactions",
)

#: Markdown files whose links are checked.
DOCUMENTS = (
    "README.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/ALGORITHMS.md",
    "docs/BENCHMARKS.md",
)

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


@pytest.mark.parametrize("module_name", FACADE_MODULES)
def test_facade_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module_name}: {result.failed} doctest(s) failed"
    assert result.attempted > 0, f"{module_name} has no doctest examples"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_markdown_links_resolve(document):
    path = REPO / document
    assert path.is_file(), f"{document} is missing"
    dangling = []
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            dangling.append(target)
    assert not dangling, f"{document} has dangling links: {dangling}"


def test_readme_links_the_docs_suite():
    readme = (REPO / "README.md").read_text()
    for target in (
        "docs/ARCHITECTURE.md",
        "docs/ALGORITHMS.md",
        "docs/BENCHMARKS.md",
    ):
        assert target in readme, f"README does not link {target}"
