"""Every imported name is used, every module-level private function or
class of the package is referenced, every public one, and every public
method of a public class (by an attribute or a string), is reached from
outside the tests, every
parameter default of the package is passed and every module-level
constant read from outside the tests, and every exception the package
raises is one kind of coxkit.errors, each raised somewhere: stdlib-only
checks."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return [f"{filename}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    files = [p for d in ("src", "tests", "scripts")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert files
    unused = [msg for p in files
              for msg in _unused_imports(p.read_text(encoding="utf-8"),
                                         str(p.relative_to(ROOT)))]
    assert not unused, "\n".join(unused)


def test_checker_flags_unused_and_spares_all_and_future():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a.b import c as d, e\n"
              "__all__ = ['e']\n"
              "print(sys.argv)\n")
    assert _unused_imports(source, "m.py") == ["m.py:3: d", "m.py:2: os"]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _mentions(node: ast.AST, bare: bool = True):
    """Every name, attribute, imported name and dotted string's last part
    under node, or without bare only the attributes and strings (a local
    name never reaches a method); an `__all__` list mentions nothing."""
    if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets):
        return
    if isinstance(node, ast.Name) and bare:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias) and bare:
        yield node.name.split(".")[-1]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value.split(".")[-1]
    for child in ast.iter_child_nodes(node):
        yield from _mentions(child, bare)


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name, enclosing top-level definition or None) for every mention in
    a module."""
    return [(name, top.name if isinstance(top, _DEFINITIONS) else None)
            for top in tree.body for name in _mentions(top)]


def _orphans(sources: dict[str, str], checked) -> list[str]:
    """The module-level private functions and classes of the files in
    checked that nothing references outside their own definition, in any
    of the sources (file name -> text) outside tests/."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    used = {(ref, name if owner == ref else None)
            for name, tree in trees.items() if not name.startswith("tests/")
            for ref, owner in _references(tree)}
    out = []
    for name in checked:
        for node in trees[name].body:
            if (isinstance(node, _DEFINITIONS)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and not any(ref == node.name and home != name
                                for ref, home in used)):
                out.append(f"{name}:{node.lineno}: {node.name}")
    return out


def _package_sources() -> tuple[dict[str, str], list[str]]:
    """The text of every Python file of the repository by its path, and
    the paths of the package's files."""
    files = [p for d in ("src", "tests", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in files}
    checked = [name for name in sources if name.startswith("src/coxkit/")]
    assert checked
    return sources, checked


def test_no_orphan_private_helpers():
    orphans = _orphans(*_package_sources())
    assert not orphans, "\n".join(orphans)


def test_checker_flags_orphans_and_spares_outside_references():
    sources = {
        "pkg/m.py": ("def _alone(n):\n"
                     "    return _alone(n - 1) if n else 0\n"
                     "def _called():\n"
                     "    return 1\n"
                     "class _Base:\n"
                     "    pass\n"
                     "class Child(_Base):\n"
                     "    x = _called()\n"
                     "def _by_test():\n"
                     "    pass\n"
                     "def _patched():\n"
                     "    pass\n"
                     "def __getattr__(name):\n"
                     "    pass\n"),
        "t.py": ("from pkg.m import _by_test\n"
                 "monkeypatch.setattr(m, '_patched', None)\n"
                 "def _test_helper():\n"
                 "    pass\n"),
        "tests/test_m.py": ("from pkg.m import _test_only\n"
                            "_test_only()\n"),
    }
    sources["pkg/m.py"] += "def _test_only():\n    pass\n"
    # a helper that only tests/ reach is an orphan: it belongs in tests/
    assert _orphans(sources, ["pkg/m.py"]) == ["pkg/m.py:1: _alone",
                                               "pkg/m.py:15: _test_only"]


def _public(tree: ast.Module):
    """(qualified name, node) of each public module-level function and
    class and each public method of a public class."""
    for top in tree.body:
        if isinstance(top, _DEFINITIONS) and not top.name.startswith("_"):
            yield top.name, top
            for node in top.body if isinstance(top, ast.ClassDef) else ():
                if (isinstance(node, _FUNCTIONS)
                        and not node.name.startswith("_")):
                    yield f"{top.name}.{node.name}", node


def _unreached(sources: dict[str, str], checked, readme: str) -> list[str]:
    """The public functions, classes and methods of the files in checked
    that no source (file name -> text) outside tests/ mentions outside
    their own definition and that no code span of readme names.  A method
    is mentioned only by an attribute or a string, and named only as
    `Class.method`.  A name shared with another definition counts as
    reached through it."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    outside = [tree for name, tree in trees.items()
               if not name.startswith("tests/")]
    mentioned = {bare: Counter(m for tree in outside
                               for m in _mentions(tree, bare))
                 for bare in (True, False)}
    spans = re.findall(r"```.*?```|`[^`]+`", readme, re.S)
    named = {word for span in spans
             for word in re.findall(r"[A-Za-z_]\w*", span)}
    named |= {pair for span in spans
              for pair in re.findall(r"(?=\b([A-Za-z_]\w*\.[A-Za-z_]\w*))",
                                     span)}
    out = []
    for name in checked:
        for qual, node in _public(trees[name]):
            bare = "." not in qual
            if ((node.name if bare else qual) not in named
                    and mentioned[bare][node.name]
                    == Counter(_mentions(node, bare))[node.name]):
                out.append(f"{name}:{node.lineno}: {qual}")
    return out


def test_every_public_name_is_reached_outside_the_tests():
    # the library, the CLI, the scripts and the benchmark reach the public
    # surface, or README documents it; a test oracle lives in tests/
    unreached = _unreached(*_package_sources(),
                           (ROOT / "README.md").read_text(encoding="utf-8"))
    assert not unreached, "\n".join(unreached)


def test_checker_flags_test_only_names_and_spares_readme_and_callers():
    sources = {
        "pkg/m.py": ("def by_test():\n"
                     "    pass\n"
                     "def recursive(n):\n"
                     "    return recursive(n - 1) if n else 0\n"
                     "def documented():\n"
                     "    pass\n"
                     "def called():\n"
                     "    pass\n"
                     "def exported():\n"
                     "    pass\n"
                     "__all__ = ['exported']\n"
                     "class Table:\n"
                     "    def row(self):\n"
                     "        return called()\n"
                     "    def unread(self):\n"
                     "        return self.unread()\n"
                     "    def shadowed(self):\n"
                     "        pass\n"
                     "    def patched(self):\n"
                     "        pass\n"
                     "    def listed(self):\n"
                     "        pass\n"
                     "    def __len__(self):\n"
                     "        return 0\n"
                     "class _Hidden:\n"
                     "    def method(self):\n"
                     "        pass\n"),
        "scripts/s.py": ("from pkg.m import Table\n"
                         "shadowed = Table().row()\n"
                         "print(shadowed)\n"
                         "setattr(Table, 'patched', None)\n"),
        "tests/test_m.py": ("from pkg.m import by_test, recursive\n"
                            "by_test(recursive(2))\n"),
    }
    # a local name or a bare README word never reaches a method, but an
    # attribute, a string or `Class.method` in README does
    readme = ("The prose word by_test names nothing; `documented()` and\n"
              "```\nunread = 1\n```\nand `m.Table.listed()`\n")
    assert _unreached(sources, ["pkg/m.py"], readme) == [
        "pkg/m.py:1: by_test", "pkg/m.py:3: recursive",
        "pkg/m.py:9: exported", "pkg/m.py:15: Table.unread",
        "pkg/m.py:17: Table.shadowed"]


def _name(node: ast.AST) -> str | None:
    """The name a Name or an Attribute node reads, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _passes(trees) -> tuple[Counter, dict, set]:
    """For each name called in trees: the most positional arguments one
    call passes (every position once a call passes *args), and the
    keywords the calls pass (None, every keyword, once a call passes
    **kwargs); and the names mentioned other than as a callee."""
    most: Counter = Counter()
    keywords: dict[str, set | None] = {}
    callees, mentioned = set(), set()
    for tree in trees:
        # ast.walk yields a call before its callee
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = _name(node.func)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    most[name] = float("inf")
                most[name] = max(most[name], len(node.args))
                words = keywords.setdefault(name, set())
                if words is not None:
                    names = [k.arg for k in node.keywords]
                    keywords[name] = (None if None in names
                                      else words.union(names))
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and id(node) not in callees):
                mentioned.add(_name(node))
    return most, keywords, mentioned


def _functions(tree: ast.Module):
    """(function node, whether its first parameter is bound) of each
    module-level function and each method of a module-level class."""
    for top in tree.body:
        if isinstance(top, _FUNCTIONS):
            yield top, False
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, _FUNCTIONS):
                    yield node, not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in node.decorator_list)


def _unpassed_defaults(sources: dict[str, str], checked) -> list[str]:
    """The parameters with a default, of the functions and methods of the
    files in checked, that no call in a source (file name -> text)
    outside tests/ passes, by position or by keyword.  Calls are matched
    by name, as in _unreached; a function mentioned other than as a
    callee counts as passing every parameter, and dunders are skipped."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    most, keywords, mentioned = _passes(
        tree for name, tree in trees.items() if not name.startswith("tests/"))
    out = []
    for name in checked:
        for fn, bound in _functions(trees[name]):
            if fn.name.startswith("__") or fn.name in mentioned:
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            words = keywords.get(fn.name, set())
            if words is None:
                continue
            unpassed = [p.arg for k, p in enumerate(positional)
                        if k >= first and most[fn.name] <= k - bound
                        and p.arg not in words]
            unpassed += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None and p.arg not in words]
            out += [f"{name}:{fn.lineno}: {fn.name}({p}=)" for p in unpassed]
    return out


def test_every_default_is_passed_outside_the_tests():
    # a parameter that only tests pass is an input the product never
    # reads: drop it, or give it a caller
    unpassed = _unpassed_defaults(*_package_sources())
    assert not unpassed, "\n".join(unpassed)


def test_checker_flags_unpassed_defaults_and_spares_passed_ones():
    sources = {
        "pkg/m.py": ("def f(a, b=1, c=2, d=3, *, e=4, g=5):\n"
                     "    pass\n"
                     "def spread(a=1, *, b=2):\n"
                     "    pass\n"
                     "def handed(a=1):\n"
                     "    pass\n"
                     "def __dunder(a=1):\n"
                     "    pass\n"
                     "class Table:\n"
                     "    def row(self, k=0, full=False):\n"
                     "        return f(k, 1, d=2)\n"
                     "    @staticmethod\n"
                     "    def make(n=0, m=0):\n"
                     "        return Table().row(n)\n"
                     "    def __init__(self, n=0):\n"
                     "        pass\n"
                     "hooks = [handed]\n"),
        "scripts/s.py": ("from pkg.m import f, spread, Table\n"
                         "f(0, e=1)\n"
                         "spread(*[1], **{'b': 2})\n"
                         "Table.make(1)\n"),
        "tests/test_m.py": ("from pkg.m import f\n"
                            "f(0, 1, 2, 3, e=4, g=5)\n"),
    }
    assert _unpassed_defaults(sources, ["pkg/m.py"]) == [
        "pkg/m.py:1: f(c=)", "pkg/m.py:1: f(g=)",
        "pkg/m.py:10: row(full=)", "pkg/m.py:13: make(m=)"]


def _reads(node: ast.AST):
    """The names node reads: a name or attribute loaded, or a name
    imported."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        if isinstance(node.ctx, ast.Load):
            yield _name(node)
    elif isinstance(node, ast.alias):
        yield node.name.split(".")[-1]


def _assigned(tree: ast.Module):
    """(name, line) of each name a module-level assignment binds, dunders
    aside."""
    for top in tree.body:
        targets = (top.targets if isinstance(top, ast.Assign)
                   else [top.target] if isinstance(top, ast.AnnAssign)
                   else [])
        for target in targets:
            for node in ast.walk(target):
                if (isinstance(node, ast.Name)
                        and not node.id.startswith("__")):
                    yield node.id, top.lineno


def _unread_constants(sources: dict[str, str], checked) -> list[str]:
    """The names assigned at module level in the files in checked that no
    source (file name -> text) outside tests/ reads: a constant that only
    tests read is a knob the product never turns."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    read = {ref for name, tree in trees.items()
            if not name.startswith("tests/")
            for node in ast.walk(tree) for ref in _reads(node)}
    return [f"{name}:{line}: {const}" for name in checked
            for const, line in _assigned(trees[name]) if const not in read]


def test_every_module_constant_is_read_outside_the_tests():
    unread = _unread_constants(*_package_sources())
    assert not unread, "\n".join(unread)


def test_checker_flags_unread_constants_and_spares_read_ones():
    sources = {
        "pkg/m.py": ("__all__ = ['LIMIT']\n"
                     "LIMIT = 3\n"
                     "IDLE = 4\n"
                     "LOW, HIGH = 1, 2\n"
                     "TABLE: dict = {}\n"
                     "SHADOW = 5\n"
                     "def f(n):\n"
                     "    SHADOW = n\n"
                     "    return n < LIMIT\n"),
        "scripts/s.py": ("from pkg.m import TABLE\n"
                         "import pkg.m as m\n"
                         "print(m.LOW)\n"
                         "m.HIGH = 0\n"),
        "tests/test_m.py": ("from pkg import m\n"
                            "print(m.IDLE)\n"),
    }
    assert _unread_constants(sources, ["pkg/m.py"]) == [
        "pkg/m.py:3: IDLE", "pkg/m.py:4: HIGH", "pkg/m.py:6: SHADOW"]


# the built-in kinds the package raises on purpose: TypeError for an operand
# of the other ring, ArithmeticError for an invariant that cannot fail
_BUILTIN_RAISES = {"TypeError", "ArithmeticError"}


def _stray_raises(sources: dict[str, str], errors: str) -> list[str]:
    """Each `raise Name(...)` of the package that names neither a kind of
    the errors module nor one of _BUILTIN_RAISES, and each kind of that
    module that nothing raises."""
    kinds = {node.name for node in ast.parse(sources[errors]).body
             if isinstance(node, ast.ClassDef)}
    out, raised = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, name)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id[:1].isupper():
                raised.add(exc.id)
                if exc.id not in kinds | _BUILTIN_RAISES:
                    out.append(f"{name}:{node.lineno}: {exc.id}")
    out += [f"{errors}: {kind} is never raised"
            for kind in sorted(kinds - raised)]
    return out


def test_every_raise_names_one_kind_of_the_errors_module():
    sources, checked = _package_sources()
    stray = _stray_raises({name: sources[name] for name in checked},
                          "src/coxkit/errors.py")
    assert not stray, "\n".join(stray)


def test_checker_flags_stray_raises_and_unraised_kinds():
    sources = {
        "pkg/errors.py": ("class Base(Exception):\n    pass\n"
                          "class Used(Base):\n    pass\n"
                          "class Idle(Base):\n    pass\n"),
        "pkg/m.py": ("def f(x):\n"
                     "    if x:\n"
                     "        raise Used('a')\n"
                     "    try:\n"
                     "        raise Base\n"
                     "    except Base as exc:\n"
                     "        raise exc\n"
                     "    raise ValueError('b')\n"
                     "def g():\n"
                     "    raise TypeError('c')\n"
                     "def h():\n"
                     "    raise\n"),
    }
    assert _stray_raises(sources, "pkg/errors.py") == [
        "pkg/m.py:8: ValueError", "pkg/errors.py: Idle is never raised"]
