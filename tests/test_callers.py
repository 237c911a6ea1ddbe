"""Code with no caller goes, and the library holds no route that only the harness uses.

A public name is a module-level ``def`` or ``class`` in ``src/degenbell/*.py``
that does not start with an underscore, or a method, classmethod or property
of ``LambdaPoly``, ``XPoly`` or ``Series`` that does not start with one
(so no dunder method).  Its users are the files among ``src/degenbell``
(``__init__.py`` excluded: a re-export is not a use) and ``perfbench/`` that
reference it outside its own definition: a module-level name by a name or an
attribute, a method by an attribute ``.name`` only.  ``README.md`` is a user
of a module-level name it shows as code, in a backtick span or a fenced
block (the text parsers are documented there as the inverses of the CLI's
output); a word of prose is not a mention, and methods get no README
exemption.  Tests do not count.

Attribute references carry no type, so the method check is conservative:
``.scale`` on any object is a use of every method called ``scale`` in the
three classes, and a method can pass while only another class's method of
that name is called.

* Every public name has a user, so a name that only tests call fails.
* A public name in ``core``, ``series`` or ``numbers`` has a user other than
  the identity harness (``identities``) and the operator calculus it checks
  (``opcalc``).  The library computes each quantity by one route; a second
  route or a tool that only the harness uses belongs next to its caller.

Out of scope: module-level constants and the methods of other classes.  The
CLI's command functions count as used: its parser refers to each one by name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "degenbell"

#: The library types whose methods are public names.
TYPES = {"LambdaPoly", "XPoly", "Series"}


def _public_definitions() -> list[tuple[Path, ast.AST, str, bool]]:
    """(path, node, label, is_method) for every public name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append((path, node, node.name, False))
            if isinstance(node, ast.ClassDef) and node.name in TYPES:
                found += [
                    (path, method, f"{node.name}.{method.name}", True)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                ]
    return found


def _references(path: Path) -> list[tuple[str, int, bool]]:
    """Every (identifier, line, is_attribute) a Name or an Attribute node in the file reads."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, True))
    return refs


def _readme_code() -> str:
    """The text of README's fenced blocks and backtick spans, one per line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    prose = re.sub(r"^```[^\n]*\n.*?^```", "", text, flags=re.M | re.S)
    return "\n".join(fenced + re.findall(r"`([^`]+)`", prose))


def _users() -> list[tuple[Path, ast.AST, str, set[str]]]:
    """Each public definition with its users, as paths relative to the repository root."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    refs = {path: _references(path) for path in sources}
    readme = _readme_code()
    found = []
    for def_path, node, label, is_method in _public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        users = {
            path.relative_to(ROOT).as_posix()
            for path, path_refs in refs.items()
            if any(
                name == node.name
                and (attribute or not is_method)
                and not (path == def_path and line in own)
                for name, line, attribute in path_refs
            )
        }
        if not is_method and re.search(rf"\b{re.escape(node.name)}\b", readme):
            users.add("README.md")
        found.append((def_path, node, label, users))
    assert any("." in label for _, _, label, _ in found), "no methods found"
    return found


def test_every_public_name_has_a_caller():
    unused = [
        f"{path.name}:{node.lineno} {label}" for path, node, label, users in _users() if not users
    ]
    assert not unused, "public names with no caller outside tests: " + ", ".join(unused)


LIBRARY = {f"src/degenbell/{name}.py" for name in ("core", "series", "numbers")}
HARNESS = {f"src/degenbell/{name}.py" for name in ("identities", "opcalc")}


def test_library_holds_no_harness_only_route():
    harness_only = [
        f"{path.name}:{node.lineno} {label}"
        for path, node, label, users in _users()
        if path.relative_to(ROOT).as_posix() in LIBRARY and users and users <= HARNESS
    ]
    assert not harness_only, (
        "library names whose only callers are identities or opcalc (move them there): "
        + ", ".join(harness_only)
    )


#: The value types; each is allocated in one stored route, and its public
#: constructor is a ``__new__`` that checks its input and returns through that route.
VALUE_TYPES = ("LambdaPoly", "XPoly", "Series", "ExpExpr")


def _allocations(node: ast.AST, where: str, found: dict[str, list[str]]) -> None:
    """Add to ``found[T]`` the enclosing function of every ``object.__new__(T)`` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _allocations(child, child.name, found)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "__new__" and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "object" and child.args
                and isinstance(child.args[0], ast.Name) and child.args[0].id in found):
            found[child.args[0].id].append(where)
        _allocations(child, where, found)


def test_each_value_type_has_one_stored_route_and_no_init():
    found = {name: [] for name in VALUE_TYPES}
    inits = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _allocations(tree, f"{path.name} (module level)", found)
        inits += [
            f"{path.name}:{node.lineno} {node.name}.__init__"
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in VALUE_TYPES
            and any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body)
        ]
    assert {name: len(sites) for name, sites in found.items()} == dict.fromkeys(VALUE_TYPES, 1), found
    assert not inits, "value types that define __init__: " + ", ".join(inits)
