"""Static check of the source tree: every imported name is used.

An AST scan stands in for a linter's F401.  A name counts as used when it is
read anywhere in its module or listed in ``__all__``.  A name is exempt when
``# noqa: F401`` stands on its own line or on the first line of its import,
and so are ``from __future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if not any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_scan_sees_the_whole_tree():
    assert any(path.name == "cli.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import_and_honours_noqa(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401 - kept for its side effect\n"
        "from json import (\n"
        "    JSONDecoder,  # noqa: F401 - re-exported\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "print(dumps)\n"
    )
    assert unused_imports(module) == ["m.py:2 os", "m.py:7 loads"]
