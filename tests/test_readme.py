"""The README's quick start runs as printed, and gives the values its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"\d+(?:\.\d+)?(?:/\d+)?")


def quick_start() -> str:
    """The Python block of the README's quick-start section."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def commented_values(line: str) -> list:
    """The numbers that open the comment of ``line``, fractions included:
    ``# 10/3, 13/15`` gives [10/3, 13/15], ``# 4.0, exact`` gives [4.0]."""
    values = []
    for item in line.split("#", 1)[1].split(","):
        if not NUMBER.fullmatch(item.strip()):
            break
        num, _, den = item.strip().partition("/")
        values.append(float(num) / float(den or 1))
    return values


def test_the_quick_start_gives_its_commented_values():
    source = quick_start()
    lines, namespace, checked = source.splitlines(), {}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        got = list(got) if isinstance(got, tuple) else [got]
        want = commented_values(lines[node.lineno - 1])
        assert len(got) == len(want) and all(abs(g - w) <= 1e-8 for g, w in zip(got, want)), (
            lines[node.lineno - 1], got)
        checked.append(want)
    # three 4.0 divergences, lambda* = 10/3 with value 13/15, lambda* = 2 with cost 1/12
    assert checked == [[4.0], [4.0], [4.0], [10 / 3, 13 / 15], [2.0, 1 / 12]]
