"""``src/crossrec`` holds only what the commands and the benchmark run: a
definition only tests reach gets checked in place of the code that runs.
The scan reads the source files and imports nothing."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _parse(pattern):
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(ROOT.glob(pattern))}


def _referenced(*trees):
    """Every name, attribute name and imported name used in ``trees``."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def test_every_src_definition_is_reached_outside_the_tests():
    src = _parse("src/crossrec/*.py")
    bench = _referenced(*_parse("bench/*.py").values())
    unreached = []
    for name, tree in src.items():
        outside = bench | _referenced(
            *(t for other, t in src.items() if other != name))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = _referenced(*(s for s in tree.body if s is not stmt))
            if stmt.name not in own | outside:
                unreached.append(f"{name}.{stmt.name}")
    assert not unreached, f"reached only by tests: {', '.join(unreached)}"


# InteractionSet's id-level API, kept for callers outside the commands
_KEPT_METHODS = {"InteractionSet.has_pair", "InteractionSet.items_of",
                 "InteractionSet.users_of", "InteractionSet.pairs"}


def _attributes(*trees):
    """How often each name is used as an attribute (``.name``)."""
    return Counter(node.attr for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def test_every_src_method_is_reached_outside_the_tests():
    # a method or property counts as reached when some src or bench
    # statement outside its own def reads ``.name`` on any receiver
    src = _parse("src/crossrec/*.py")
    uses = _attributes(*src.values(), *_parse("bench/*.py").values())
    unreached = []
    for tree in src.values():
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("__")
                        and uses[fn.name] == _attributes(fn)[fn.name]):
                    unreached.append(f"{cls.name}.{fn.name}")
    unreached = sorted(set(unreached) - _KEPT_METHODS)
    assert not unreached, f"reached only by tests: {', '.join(unreached)}"
