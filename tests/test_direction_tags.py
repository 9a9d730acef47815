"""The direction tags an estimate carries are the strings the CLI prints,
set once as `measures.EXACT`, `LOWER` and `UPPER`. This guard fails on any
string literal elsewhere in the package that spells a bounding tag, or the
long forms they replaced, naming file and line."""

import ast
from pathlib import Path

from ci_toolkit import measures

PACKAGE = Path(measures.__file__).resolve().parent
TAGS = {"lower-est", "upper-est", "lower_bound_estimate", "upper_bound_estimate"}


def test_the_constants_are_the_printed_tags():
    assert (measures.EXACT, measures.LOWER, measures.UPPER) == (
        "exact",
        "lower-est",
        "upper-est",
    )


def test_no_module_spells_a_bounding_tag():
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "measures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in TAGS:
                hits.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not hits, "use measures.LOWER / UPPER instead of:\n" + "\n".join(hits)
