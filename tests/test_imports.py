"""Every imported name is used: a stdlib-only unused-import check."""

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
