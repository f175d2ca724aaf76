"""The python blocks of README.md run, and the values they show are right.

Each block runs in a fresh namespace, one top-level statement at a time.
An expression statement may show its value as a comment, either after the
expression (``var(model, 0.99)  # 1546.7...``) or alone on the line below
it; the shown text is read with :func:`ast.literal_eval` and must equal
what the expression returns.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def shown_values(source: str) -> dict[int, str]:
    """Comment text by line number, with ``#`` and surrounding blanks removed."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT
    }


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_values(source):
    comments = shown_values(source)
    lines = source.splitlines()
    namespace: dict[str, object] = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        line = node.end_lineno
        if line not in comments and lines[line:line + 1] and lines[line].lstrip().startswith("#"):
            line += 1
        if line in comments:
            shown = comments[line]
            assert got == ast.literal_eval(shown), f"README shows {shown}, got {got!r}"
            checked += 1
    assert checked, "a README python block shows no value to check"
