"""tools/code_lines.py, the count behind every claim that src/ shrinks: a
line counts if it holds a token other than a comment and is not part of a
docstring."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)
count = code_lines.code_lines


@pytest.mark.parametrize(
    "source",
    [
        "",
        "\n\n   \n",
        "# a comment\n    # an indented one\n",
        '"""A module docstring\n\nover three lines."""\n',
    ],
)
def test_blank_comment_and_docstring_lines_count_zero(source):
    assert count(source) == 0


def test_function_and_class_docstrings_count_zero():
    source = (
        "class A:\n"
        '    """Class doc."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Method doc,\n"
        "        two lines.'''\n"
        "        # why\n"
        "        return 1  # trailing comment\n"
    )
    assert count(source) == 3  # class, def and return


def test_a_split_statement_counts_each_line_that_holds_a_token():
    source = "x = (\n    1,\n\n    # between\n    2,\n)\n"
    assert count(source) == 4  # "x = (", "1,", "2," and ")"


def test_a_hash_inside_a_string_is_code():
    assert count('s = "# not a comment"\n') == 1
    assert count("s = '''\n# still the string\n'''\n") == 3


def test_a_string_that_is_not_a_docstring_counts():
    assert count('x = 1\n"""Not first, so not a docstring."""\n') == 2
