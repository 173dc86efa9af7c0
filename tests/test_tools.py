"""tools/code_lines.py, the count behind every claim that src/ shrinks: a
line counts if it holds a token other than a comment and is not part of a
docstring."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
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


@pytest.fixture
def checkout(tmp_path):
    """A git repository holding the tool and one committed source file."""
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "a"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=tmp_path, check=True)
    return tmp_path


def run_tool(checkout, *args):
    return subprocess.run(
        [sys.executable, str(checkout / "tools" / "code_lines.py"), *args], capture_output=True, text=True
    )


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_module_docstring(checkout, flag):
    done = run_tool(checkout, flag)
    assert (done.returncode, done.stdout.strip()) == (0, code_lines.__doc__.strip())


def test_an_unknown_revision_is_named_on_one_line(checkout):
    done = run_tool(checkout, "no-such-rev")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == ["code_lines.py: unknown revision 'no-such-rev'"]


def test_a_tracked_file_deleted_from_the_working_tree_counts_zero(checkout):
    (checkout / "src" / "a.py").unlink()
    now, since = run_tool(checkout), run_tool(checkout, "HEAD")
    assert (now.returncode, now.stdout.split()) == (0, ["0", "src/a.py", "0", "total"])
    assert (since.returncode, since.stdout.splitlines()) == (
        0, ["     2 ->      0  src/a.py", "     2 ->      0  total (-2)"]
    )
