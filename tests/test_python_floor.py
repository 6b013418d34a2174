"""Every Python file of the project parses under the grammar of the oldest
Python that ``pyproject.toml`` declares (``requires-python``), so syntax
newer than that floor fails here even when a newer interpreter runs the
suite. The files are only read, never imported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "demos", "perfbench")


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    m = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text)
    assert m, "pyproject.toml declares no requires-python floor"
    return int(m.group(1)), int(m.group(2))


def test_sources_parse_on_declared_python_floor():
    floor = declared_floor()
    files = sorted(p for d in DIRS for p in (ROOT / d).rglob("*.py"))
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, f"syntax newer than Python {floor[0]}.{floor[1]}:\n" + \
        "\n".join(failures)
