"""Every numeric floor and slack of the package is set once, in
`ci_toolkit.tolerances`. This guard fails on any float literal elsewhere in
the package that equals one of its values, naming file and line. The
verification suites' printed thresholds are claims, not numerics, so
`suites.py` is exempt."""

import ast
from pathlib import Path

from ci_toolkit import tolerances

PACKAGE = Path(tolerances.__file__).resolve().parent
EXEMPT = {"tolerances.py", "suites.py"}
TABLE = {
    name: value
    for name, value in vars(tolerances).items()
    if name.isupper() and isinstance(value, float)
}


def test_table_holds_the_four_values():
    assert TABLE == {"VALIDATE": 1e-10, "ZERO": 1e-12, "DIAG": 1e-13, "SLACK": 1e-9}


def test_no_module_repeats_a_table_value():
    values = set(TABLE.values())
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and node.value in values
            ):
                hits.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not hits, "use ci_toolkit.tolerances instead of:\n" + "\n".join(hits)
