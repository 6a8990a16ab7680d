"""Guard against dead code: every name ``src/repro`` defines is used.

A function, class, method or property defined under ``src/repro``
(dunders aside) must be named, as a whole word, somewhere other than
its own ``def``/``class`` line: in the package, the tests, the
benchmarks, perfbench or the examples.  A name that only its
definition mentions has no caller and should be deleted.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "perfbench", "examples")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defined_names() -> Counter:
    """How many times each non-dunder name is defined in the package."""
    names: Counter = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                names[node.name] += 1
    return names


def _word_counts() -> Counter:
    """Whole-word occurrences across every searched Python file."""
    words: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_every_defined_name_is_used_beyond_its_definition():
    words = _word_counts()
    unused = sorted(
        name
        for name, definitions in _defined_names().items()
        if words[name] <= definitions
    )
    assert not unused, (
        "defined under src/repro but named nowhere else (delete them or "
        f"give them a caller): {', '.join(unused)}"
    )
