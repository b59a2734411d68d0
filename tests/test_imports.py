"""Every imported name is used, and every module-level private function
or class of the package is referenced: stdlib-only checks."""

import ast
import pathlib

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


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name, enclosing top-level definition or None) for every name,
    attribute, imported name and dotted string a module mentions."""
    out = []
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef,
                                              ast.AsyncFunctionDef,
                                              ast.ClassDef)) else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif isinstance(node, ast.alias):
                out.append((node.name.split(".")[-1], owner))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                                str):
                out.append((node.value.split(".")[-1], owner))
    return out


def _orphans(sources: dict[str, str], checked) -> list[str]:
    """The module-level private functions and classes of the files in
    checked that nothing references outside their own definition, in any
    of the sources (file name -> text)."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    used = {(ref, name if owner == ref else None)
            for name, tree in trees.items()
            for ref, owner in _references(tree)}
    out = []
    for name in checked:
        for node in trees[name].body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and not any(ref == node.name and home != name
                                for ref, home in used)):
                out.append(f"{name}:{node.lineno}: {node.name}")
    return out


def test_no_orphan_private_helpers():
    files = [p for d in ("src", "tests", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in files}
    checked = [name for name in sources if name.startswith("src/coxkit/")]
    assert checked
    orphans = _orphans(sources, checked)
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
    }
    assert _orphans(sources, ["pkg/m.py"]) == ["pkg/m.py:1: _alone"]
