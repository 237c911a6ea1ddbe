"""Code with no caller goes, and the library holds no route that only the harness uses.

A public name is a module-level ``def`` or ``class`` in ``src/degenbell/*.py``
that does not start with an underscore.  Its users are the files that
reference it outside its own definition by a name or an attribute, among
``src/degenbell`` (``__init__.py`` excluded: a re-export is not a use) and
``perfbench/``, plus ``README.md`` when it names it (the text parsers are
documented there as the inverses of the CLI's output).  Tests do not count.

* Every public name has a user, so a name that only tests call fails.
* A public name in ``core``, ``series`` or ``numbers`` has a user other than
  the identity harness (``identities``) and the operator calculus it checks
  (``opcalc``).  The library computes each quantity by one route; a second
  route that only the harness compares with belongs next to its caller.

Out of scope: methods (only module-level names are listed) and module-level
constants.  The CLI's command functions count as used: its parser refers to
each one by name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "degenbell"


def _public_definitions() -> list[tuple[Path, ast.AST]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
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


def _users() -> list[tuple[Path, ast.AST, set[str]]]:
    """Each public definition with its users, as paths relative to the repository root."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    refs = {path: _references(path) for path in sources}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = []
    for def_path, node in _public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        users = {
            path.relative_to(ROOT).as_posix()
            for path, path_refs in refs.items()
            if any(
                name == node.name and not (path == def_path and line in own)
                for name, line in path_refs
            )
        }
        if re.search(rf"\b{re.escape(node.name)}\b", readme):
            users.add("README.md")
        found.append((def_path, node, users))
    assert found, "no public definitions found"
    return found


def test_every_public_name_has_a_caller():
    unused = [
        f"{path.name}:{node.lineno} {node.name}" for path, node, users in _users() if not users
    ]
    assert not unused, "public names with no caller outside tests: " + ", ".join(unused)


LIBRARY = {f"src/degenbell/{name}.py" for name in ("core", "series", "numbers")}
HARNESS = {f"src/degenbell/{name}.py" for name in ("identities", "opcalc")}


def test_library_holds_no_harness_only_route():
    harness_only = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node, users in _users()
        if path.relative_to(ROOT).as_posix() in LIBRARY and users and users <= HARNESS
    ]
    assert not harness_only, (
        "library names whose only callers are identities or opcalc (move them there): "
        + ", ".join(harness_only)
    )
