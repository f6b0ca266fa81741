"""Count the package's source lines by kind, and list the definitions whose code differs.

Usage (from any directory)::

    python3 tools/src_lines.py
    python3 tools/src_lines.py --against ../parent-checkout

For every module of ``src/fairtensor`` under ``--root`` (default: this
checkout) it prints one line of its total, code, docstring, comment and blank
lines, and a ``total`` line.  A docstring line is one of a module, class or
function docstring (``ast``); a comment line holds a comment and no code, and
a blank line holds neither (``tokenize``); every other line is code, the lines
of a multi-line string or expression included.

With ``--against OTHER`` it prints OTHER's counts too, then one line per
top-level definition whose code differs between the two trees::

    <module> <name> changed|added|removed

A definition is a function or class (a class with its methods), an
assignment named by its targets, an import statement named by what it
imports from, or another statement named by its kind and ordinal.  Two
definitions have the same code when their ASTs match with every docstring
removed, so a change to docstrings, comments or layout lists nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "fairtensor"
KINDS = ("total", "code", "docstring", "comment", "blank")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring(node: ast.AST) -> ast.Expr | None:
    """The docstring statement of a module, class or function, if it has one."""
    body = getattr(node, "body", None)
    if isinstance(node, _SCOPES) and body and isinstance(body[0], ast.Expr):
        value = body[0].value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return body[0]
    return None


def line_counts(source: str) -> dict[str, int]:
    """Lines of ``source`` by kind, as :data:`KINDS` names them."""
    lines = source.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        doc = _docstring(node)
        if doc is not None:
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    counts["total"] = len(lines)
    for number in range(1, len(lines) + 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def definitions(source: str) -> dict[str, str]:
    """{name: AST dump without docstrings} of each top-level definition."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        doc = _docstring(node)
        if doc is not None:
            node.body.remove(doc)
    defs: dict[str, str] = {}
    others: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            name = ", ".join(ast.unparse(t) for t in targets)
        elif isinstance(node, ast.ImportFrom):
            name = f"from {'.' * node.level}{node.module or ''} import"
        elif isinstance(node, ast.Import):
            name = "import " + ", ".join(alias.name for alias in node.names)
        else:  # such as an ``if __name__ == "__main__":``, by its kind and ordinal
            kind = type(node).__name__
            others[kind] = others.get(kind, 0) + 1
            name = f"{kind} #{others[kind]}"
        defs[name] = defs.get(name, "") + ast.dump(node)
    return defs


def _sources(root: Path) -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((root / PACKAGE).glob("*.py"))}


def table(sources: dict[str, str]) -> list[str]:
    """One line of :func:`line_counts` per module, and their total."""
    rows, total = [], dict.fromkeys(KINDS, 0)
    for name, source in sources.items():
        counts = line_counts(source)
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        rows.append((name, counts))
    rows.append(("total", total))
    width = max(len(name) for name, _ in rows)
    header = f"{'module':<{width}}" + "".join(f" {kind:>9}" for kind in KINDS)
    return [header] + [f"{name:<{width}}" + "".join(f" {c[kind]:>9}" for kind in KINDS)
                       for name, c in rows]


def code_changes(sources: dict[str, str], others: dict[str, str]) -> list[str]:
    """One line per definition whose code differs between two trees' modules."""
    lines = []
    for module in sorted(set(sources) | set(others)):
        new = definitions(sources[module]) if module in sources else {}
        old = definitions(others[module]) if module in others else {}
        for name in [*old, *(n for n in new if n not in old)]:
            if name not in new:
                lines.append(f"{module} {name} removed")
            elif name not in old:
                lines.append(f"{module} {name} added")
            elif new[name] != old[name]:
                lines.append(f"{module} {name} changed")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/fairtensor is counted (default: this one)")
    parser.add_argument("--against", type=Path, default=None,
                        help="second checkout to count and compare definitions with")
    args = parser.parse_args(argv)
    roots = [args.root] + ([args.against] if args.against else [])
    for root in roots:
        if not (root / PACKAGE / "__init__.py").is_file():
            print(f"error: {root} has no {PACKAGE}", file=sys.stderr)
            return 2
    trees = [_sources(root) for root in roots]
    for root, sources in zip(roots, trees):
        print(f"# {root}")
        print("\n".join(table(sources)))
    if args.against:
        print("# code changes")
        print("\n".join(code_changes(*trees)) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
