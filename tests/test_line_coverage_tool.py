"""Unit tests for ``tools/line_coverage.py``: which statement lines it
counts, and which it excludes the way ``coverage.py`` does."""

import ast
import textwrap

from tools.line_coverage import excluded_lines, executable_lines


def _excluded(source: str) -> set:
    source = textwrap.dedent(source)
    return excluded_lines(ast.parse(source), source)


def _executable(tmp_path, source: str) -> set:
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return executable_lines(str(path))


def test_pragma_excludes_a_single_statement():
    source = """\
    x = 1
    y = 2  # pragma: no cover
    z = 3
    """
    assert _excluded(source) == {2}


def test_pragma_on_a_header_excludes_the_block():
    source = """\
    def f(flag):
        if flag:  # pragma: no cover
            a = 1
            b = 2
        return 0
    """
    assert _excluded(source) == {2, 3, 4}


def test_pragma_on_an_except_clause_excludes_the_handler():
    source = """\
    try:
        a = 1
    except OSError:  # pragma: no cover
        a = 2
    b = 3
    """
    assert _excluded(source) == {3, 4}


def test_pragma_in_a_body_leaves_the_header_counted(tmp_path):
    source = """\
    def f():
        a = 1
        raise SystemExit(a)  # pragma: no cover
    """
    assert _executable(tmp_path, source) == {1, 2}


def test_docstrings_are_not_statements(tmp_path):
    source = '''\
    """Module docstring."""

    def f():
        """Function docstring."""
        return 1
    '''
    assert _executable(tmp_path, source) == {3, 5}
