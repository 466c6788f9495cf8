"""The README's quick example runs as printed and gives the values it documents,
and its "Library API" list is the package's public surface."""

import ast
import re
from pathlib import Path

import pytest

import restartk

README = Path(__file__).resolve().parent.parent / "README.md"


def _example_values():
    """Run the README's Python block; the value of each expression statement, in order."""
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope, values = {}, []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    return values


def test_quick_example_values():
    probability, measure, moments, estimate = _example_values()
    # "0.5365..." gives the leading digits
    assert str(probability).startswith("0.5365")
    assert str(measure).startswith("0.5133")
    assert moments == pytest.approx((0.5, 1.0, 0.75), rel=1e-12)
    assert f"{estimate.estimate:.4f}" == "0.4955"
    assert f"{estimate.std_error:.4f}" == "0.0061"
    assert estimate.n == 20000


def test_library_api_list_is_the_public_surface():
    # the names on the bullets of the "Library API" section, which must
    # grow with __all__, and __all__ with them
    section = README.read_text().split("## Library API\n")[1].split("\n## ")[0]
    listed = re.findall(r"`(\w+)`", section.split("\n- ", 1)[1])
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(restartk.__all__)
