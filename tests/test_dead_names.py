"""Every module-level function and class in src/nqforge, and every
non-dunder method of those classes, is referenced somewhere in src/,
tests/, scripts/ or perfbench/.

A reference is a Name, an Attribute, an imported name, or the attribute
string of a TIMED or COUNTED target in perfbench/spans.py (the tracer
patches those by name).  Strings listed in __all__ do not count: exporting
a name does not use it.  Methods are matched by name alone."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "scripts", "perfbench")


def _definitions(tree):
    """(line, name) of the module-level functions and classes of a module
    and of their non-dunder methods, the latter named Class.method."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found.append((item.lineno, node.name + "." + item.name))
    return found


def _references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED")
            for t in node.targets
        ):
            for target in node.value.elts:
                names.update(target.elts[2].value.split("."))
    return names


def _unreferenced(defining, referencing):
    """(file name, line, name) of each definition in the defining files
    that no referencing file mentions."""
    names = set()
    for path in referencing:
        names |= _references(ast.parse(path.read_text(), filename=str(path)))
    dead = []
    for path in defining:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _definitions(tree):
            if name.split(".")[-1] not in names:
                dead.append((path.name, line, name))
    return dead


def test_every_definition_is_referenced():
    defining = sorted((ROOT / "src" / "nqforge").glob("*.py"))
    referencing = [
        path for folder in FOLDERS for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert not _unreferenced(defining, referencing)


def test_scan_sees_an_unreferenced_definition(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from sample import aliased as other\n"
        "__all__ = ['orphan']\n"
        "TIMED = [('span', 'sample', 'Box.timed')]\n"
        "def aliased():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "    def timed(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        pass\n"
        "print(Box, other)\n"
    )
    assert _unreferenced([path], [path]) == [
        ("sample.py", 6, "orphan"),
        ("sample.py", 13, "Box.unused"),
    ]
