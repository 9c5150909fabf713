import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# ``result.<attribute>   # <literal>[: remark]``: a value the quick start promises
_PROMISE_RE = re.compile(r"^(result\.[\w.()]+)\s+#\s*([^:]+)")


def _quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_gives_the_values_it_states():
    block = _quick_start_block()
    promises = [
        (m.group(1), ast.literal_eval(m.group(2).strip()))
        for m in map(_PROMISE_RE.match, block.splitlines())
        if m
    ]
    assert promises == [
        ("result.network.arcs()", [(0, 1), (0, 2)]),
        ("result.node_order", [0, 1, 2]),
        ("result.oracle_calls", 3),
        ("result.warnings", []),
    ]
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    for expr, expected in promises:
        assert eval(expr, namespace) == expected, expr
