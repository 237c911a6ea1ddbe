"""Code with no caller goes: every public module-level name in the package is used.

A public name is a module-level ``def`` or ``class`` in ``src/degenbell/*.py``
that does not start with an underscore.  It counts as used when it is
referenced outside its own definition by a name or an attribute in
``src/degenbell`` (``__init__.py`` excluded: a re-export is not a use) or in
``perfbench/``, or when ``README.md`` names it (the text parsers are documented
there as the inverses of the CLI's output).  Tests do not count, so a name
that only tests call fails here.

Out of scope: methods (only module-level names are listed), module-level
constants, and click commands, which the command group calls.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "degenbell"


def _is_click_command(node: ast.AST) -> bool:
    return any(
        ast.unparse(d).startswith("click.") or ".command(" in ast.unparse(d)
        for d in node.decorator_list
    )


def _public_definitions() -> list[tuple[Path, ast.AST]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not _is_click_command(node)
            ):
                found.append((path, node))
    return found


def _references(path: Path) -> list[tuple[str, int]]:
    """Every (identifier, line) a Name or an Attribute node in the file reads."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def test_every_public_name_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    refs = {path: _references(path) for path in sources}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    definitions = _public_definitions()
    assert definitions, "no public definitions found"
    unused = []
    for def_path, node in definitions:
        own = range(node.lineno, node.end_lineno + 1)
        used = re.search(rf"\b{re.escape(node.name)}\b", readme) or any(
            name == node.name and not (path == def_path and line in own)
            for path, path_refs in refs.items()
            for name, line in path_refs
        )
        if not used:
            unused.append(f"{def_path.name}:{node.lineno} {node.name}")
    assert not unused, "public names with no caller outside tests: " + ", ".join(unused)
