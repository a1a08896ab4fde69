"""Every function, method and class in the package pays for itself.

A definition passes when its name is used (as a name, an attribute or an
import) somewhere in the package outside its own body, when it is listed
in ``__all__``, or when it is a dunder or the CLI's ``main``.  The scan
is by bare name, so a method passes when any attribute of that name is
read anywhere.  Code that only tests call fails here: move it into
``tests/conftest.py`` as an oracle, or export it.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "filtmult"

# Definitions with no caller in the package, each kept for a reason the
# scan cannot see.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "monomial.MonomialIdeal.covolume": "public method of an exported class; "
    "the benchmark times monomial.covolume by name",
    "multiplicity.exact_growth": "the benchmark lists it among its self-timed functions",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def used_names(node):
    """Names, attribute names and imported names anywhere under node."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.rsplit(".", 1)[-1]] += 1
    return names


def definitions(tree, prefix):
    """(qualified name, node) for every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFS):
            name = f"{prefix}.{node.name}"
            yield name, node
            yield from definitions(node, name)
        else:
            yield from definitions(node, prefix)


def exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced(package=PACKAGE):
    """Qualified names of the definitions that pass none of the rules."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    names, public = Counter(), set()
    for tree in trees.values():
        names += used_names(tree)
        public |= exported(tree)
    out = []
    for module, tree in trees.items():
        for qualified, node in definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualified == "cli.main" or name in public:
                continue
            if names[name] - used_names(node)[name] > 0:
                continue
            out.append(qualified)
    return out


def test_every_definition_is_used_or_allowed():
    found = unreferenced()
    unexplained = [name for name in found if name not in ALLOWED]
    assert not unexplained, f"no caller in src/ and not exported: {unexplained}"


def test_every_allowed_name_is_still_unreferenced():
    found = set(unreferenced())
    stale = sorted(name for name in ALLOWED if name not in found)
    assert not stale, f"allowlisted but now used or gone; drop it from ALLOWED: {stale}"


def test_scan_flags_an_uncalled_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['api']\n"
        "def api():\n    return _helper()\n"
        "def _helper():\n    return 1\n"
        "def _orphan():\n    return _orphan()\n"
        "class K:\n    def __init__(self):\n        self.x = 1\n    def lonely(self):\n        pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import K\nK()\n", encoding="utf-8")
    assert unreferenced(tmp_path) == ["a._orphan", "a.K.lonely"]
