"""Statement-coverage measurement without external dependencies.

Runs the test suite under ``sys.settrace`` and ``threading.settrace``
(so worker threads count too) counting executed lines of ``src/repro``,
and divides by the number of executable statement lines (computed from
the AST, the same statement granularity ``coverage.py`` reports).  As in
``coverage.py``, a statement whose line carries ``# pragma: no cover``
is excluded, together with the block it opens.  Subprocesses are not
traced.  CI uses ``pytest --cov`` proper; this tool exists so the
coverage ratchet in ``.github/workflows/ci.yml`` can be re-derived in
environments where ``coverage`` is not installed::

    PYTHONPATH=src python tools/line_coverage.py [pytest args...]

Prints per-package and total percentages; the CI floor is total minus one
point (see VERIFICATION.md).
"""

from __future__ import annotations

import ast
import os
import re
import sys
import threading
from collections import defaultdict

SRC_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

# coverage.py's default exclusion pattern.
EXCLUDE = re.compile(r"#\s*(pragma|PRAGMA)[:\s]?\s*(no|NO)\s*(cover|COVER)")


def excluded_lines(tree: ast.AST, source: str) -> set:
    """Lines of every statement or ``except`` clause whose own lines (the
    header, for a block) carry the exclusion pragma, with the whole block
    it opens."""
    marked = {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if EXCLUDE.search(text)
    }
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        body = getattr(node, "body", None)
        header_end = body[0].lineno - 1 if body else node.end_lineno
        if marked.intersection(range(node.lineno, header_end + 1)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def executable_lines(path: str) -> set:
    """Line numbers of executable statements (coverage.py's granularity)."""
    with open(path, "r", encoding="utf-8") as stream:
        source = stream.read()
    tree = ast.parse(source, filename=path)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            # A docstring-expression statement is not counted as a miss by
            # coverage.py either; skip bare string constants.
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant
            ) and isinstance(node.value.value, str):
                continue
            lines.add(node.lineno)
    return lines - excluded_lines(tree, source)


def main() -> int:
    executed = defaultdict(set)
    prefix = SRC_ROOT + os.sep

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if event == "line":
            executed[filename].add(frame.f_lineno)
        return tracer

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(sys.argv[1:] or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_hit = total_lines = 0
    rows = []
    for dirpath, _, filenames in os.walk(os.path.join(SRC_ROOT, "repro")):
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            lines = executable_lines(path)
            hit = len(lines & executed.get(path, set()))
            total_hit += hit
            total_lines += len(lines)
            rows.append((os.path.relpath(path, SRC_ROOT), hit, len(lines)))
    for rel, hit, count in rows:
        pct = 100.0 * hit / count if count else 100.0
        print(f"{pct:6.1f}%  {hit:5d}/{count:<5d}  {rel}")
    pct = 100.0 * total_hit / total_lines if total_lines else 100.0
    print(f"\nTOTAL {pct:.2f}%  ({total_hit}/{total_lines} statements)")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
