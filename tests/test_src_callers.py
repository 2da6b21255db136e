"""No routine in ``src/osptwist`` without a caller.

Every ``def`` and ``class`` of the package (dunder methods aside) must be
named by some code token of the package outside its own definition: a
routine that only tests reach is not part of the library.  The only
exceptions are the names the benchmark reaches from outside: the routines
that ``perfbench/tracer.py`` wraps (its ``TARGETS``) and every name that
``perfbench/workloads.py`` reads.  Both files are only read.  The check
matches names, not objects, so a method is kept alive by any use of its
name in the package."""

import ast
import io
import tokenize
from pathlib import Path

from test_tracer_targets import load_tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "osptwist"


def code_names(text):
    """(name, line) of every NAME token; comments and strings are not code."""
    return [
        (tok.string, tok.start[0])
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type == tokenize.NAME
    ]


def definitions(text):
    """(name, first line, last line) of every def and class, decorators
    included, dunder methods left out."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def benchmark_names():
    wrapped = {target[1].split(".")[-1] for target in load_tracer().TARGETS}
    workloads = ROOT / "perfbench" / "workloads.py"
    return wrapped | {name for name, _ in code_names(workloads.read_text())}


def test_every_src_definition_has_a_src_caller():
    texts = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for fname, text in texts.items():
        for name, line in code_names(text):
            uses.setdefault(name, []).append((fname, line))
    exempt = benchmark_names()
    uncalled = [
        "%s:%d %s" % (fname, first, name)
        for fname, text in texts.items()
        for name, first, last in definitions(text)
        if name not in exempt
        and all(f == fname and first <= line <= last for f, line in uses[name])
    ]
    assert not uncalled, "no caller in src/: " + ", ".join(uncalled)
