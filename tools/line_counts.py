"""Count the lines of each module of ``src/podag`` by kind.

    python tools/line_counts.py [CHECKOUT] [OTHER]

Prints, per module and in total, the lines of ``CHECKOUT/src/podag``
(default: the current directory) split into code, docstring, comment and
blank lines.  A docstring line is any line of a module, class or function
docstring, blank ones inside it included; a comment line holds a comment
and no code; a blank line is empty or whitespace outside a docstring;
every other line is code.  With ``OTHER`` it prints each count of
``CHECKOUT`` and of ``OTHER`` as ``before -> after``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")


def count(source):
    """``{kind: lines}`` of one module's ``source`` text."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code_tokens, comments = set(), set()
    skip = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            code_tokens.update(range(tok.start[0], tok.end[0] + 1))
    blank = {n for n, line in enumerate(lines, 1) if not line.strip()} - docstring
    comment = comments - code_tokens - docstring
    counts = {"total": len(lines), "docstring": len(docstring), "comment": len(comment), "blank": len(blank)}
    counts["code"] = counts["total"] - counts["docstring"] - counts["comment"] - counts["blank"]
    return counts


def package_counts(checkout):
    """``{module: counts}`` for every module of ``checkout/src/podag``, plus ``"total"``."""
    paths = sorted(Path(checkout, "src", "podag").glob("*.py"))
    modules = {path.name: count(path.read_text(encoding="utf-8")) for path in paths}
    modules["total"] = {kind: sum(c[kind] for c in modules.values()) for kind in KINDS}
    return modules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=".")
    parser.add_argument("other", nargs="?")
    args = parser.parse_args(argv)
    before = package_counts(args.checkout)
    after = package_counts(args.other) if args.other else None
    names = list(before) if after is None else sorted(set(before) | set(after), key=lambda m: (m == "total", m))
    print(f"{'module':<16}" + "".join(f"{kind:>16}" for kind in KINDS))
    for name in names:
        cells = []
        for kind in KINDS:
            old = before.get(name, {}).get(kind, 0)
            cells.append(str(old) if after is None else f"{old} -> {after.get(name, {}).get(kind, 0)}")
        print(f"{name:<16}" + "".join(f"{cell:>16}" for cell in cells))


if __name__ == "__main__":
    main()
