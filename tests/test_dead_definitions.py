"""Every function, class and method in ``src/`` is named somewhere.

A definition counts as used when its name occurs, as a whole word,
anywhere in the project's code, tests, benchmarks, examples, docs or CI
besides its own definition.  That is a coarse test: a name that several
definitions share, or that a docstring mentions, passes.  It still
catches the common case of an entry point left behind when its last
caller went.  Names reached only by dispatch are listed in
:data:`DISPATCHED`.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Where a name may be used: the code, the tests, the benchmarks, the
#: examples, the docs and the CI configuration.
SEARCHED = ("src", "tests", "benchmarks", "examples", "docs", ".github")

#: Top-level documents that describe the project.  The change log, the
#: roadmap and the paper texts are left out: they name deleted and
#: foreign definitions on purpose.
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".cfg", ".txt", ".sh"}

#: Methods that a framework calls by name.
DISPATCHED = {
    "do_GET",  # http.server.BaseHTTPRequestHandler
    "do_POST",
}


def _corpus_files():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in SUFFIXES and "__pycache__" not in path.parts:
                yield path
    for name in DOCUMENTS:
        yield ROOT / name


def _definitions():
    """``(name, "path:line")`` of every non-dunder function, class and
    method in ``src/``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_definition_is_named_elsewhere():
    # Counting \w+ runs counts every whole-word occurrence of a name.
    words = Counter()
    for path in _corpus_files():
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    definitions = list(_definitions())
    defined = Counter(name for name, _ in definitions)
    unused = sorted(
        f"{where} {name}"
        for name, where in definitions
        if name not in DISPATCHED and words[name] <= defined[name]
    )
    assert not unused, "defined in src/ but named nowhere else:\n" + "\n".join(unused)
