"""Count the code lines of the package's Python sources: lines that hold a
token other than a comment, and are not part of a docstring.

    python tools/code_lines.py           # per file, and the total
    python tools/code_lines.py HEAD~1    # the same, against a git revision

It may be run from any directory. Blank lines, comments and
docstrings do not count, and neither does how a statement is split, so
reformatting moves the count only where it adds or removes a line holding
tokens. A tracked file deleted from the working tree counts as 0 lines. An
unknown revision exits with status 2, and a closed stdout (as in
``... | head -1``) with status 1.
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True, cwd=ROOT).stdout


def counts(rev=None) -> dict:
    if rev is None:
        names = git("ls-files", "--cached", "--others", "--exclude-standard", "src/*.py").split()
        paths = {name: ROOT / name for name in names}
        return {name: code_lines(p.read_text(encoding="utf-8")) if p.exists() else 0 for name, p in paths.items()}
    names = git("ls-tree", "-r", "--name-only", rev, "src").split()
    return {name: code_lines(git("show", f"{rev}:{name}")) for name in names if name.endswith(".py")}


def main(args) -> int:
    if args[:1] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    now = counts()
    if not args:
        for name, n in sorted(now.items()):
            print(f"{n:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    rev = args[0]
    if subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"], cwd=ROOT,
                      capture_output=True).returncode:
        print(f"code_lines.py: unknown revision {rev!r}", file=sys.stderr)
        return 2
    before = counts(rev)
    for name in sorted(set(before) | set(now)):
        a, b = before.get(name, 0), now.get(name, 0)
        if a != b:
            print(f"{a:6d} -> {b:6d}  {name}")
    a, b = sum(before.values()), sum(now.values())
    print(f"{a:6d} -> {b:6d}  total ({b - a:+d})")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()  # a closed stdout fails here rather than at exit
    except BrokenPipeError:
        # Whoever read stdout has gone: point it at devnull so that the
        # interpreter's last flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
