"""No routine in ``src/osptwist`` without a caller.

Every ``def`` and ``class`` of the package (dunder methods aside) must be
named by some code token of the package outside its own definition: a
routine that only tests reach is not part of the library.  The only
exceptions are the names the benchmark reaches from outside: the routines
that ``perfbench/tracer.py`` wraps (its ``TARGETS``) and every name that
``perfbench/workloads.py`` reads.  Both files are only read.  The check
matches names, not objects, so a method is kept alive by any use of its
name in the package, even from a branch that no run takes.  The reach
guard, ``test_src_reached.py``, closes that gap: it fails on any function
that a fixed battery of runs never enters, and matches the tracer's
targets by qualified name through ``benchmark_targets`` below."""

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


def definitions(text, module):
    """("module.Qualified.name", first line, last line, is a class) of
    every def and class in ``text``, decorators included, dunder methods
    left out."""
    stack = [(ast.parse(text), module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = "%s.%s" % (prefix, child.name)
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield name, first, child.end_lineno, isinstance(child, ast.ClassDef)
            stack.append((child, name))


def benchmark_targets():
    """"module.Qualified.name" of each routine the tracer wraps."""
    return {"%s.%s" % tuple(target[:2]) for target in load_tracer().TARGETS}


def workload_names():
    """Every name token of ``perfbench/workloads.py``."""
    workloads = ROOT / "perfbench" / "workloads.py"
    return {name for name, _ in code_names(workloads.read_text())}


def benchmark_names():
    """The bare names the benchmark reaches: the wrapped routines and
    every name that the workloads read."""
    return {name.split(".")[-1] for name in benchmark_targets()} | workload_names()


def test_every_src_definition_has_a_src_caller():
    texts = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, text in texts.items():
        for name, line in code_names(text):
            uses.setdefault(name, []).append((module, line))
    exempt = benchmark_names()
    uncalled = []
    for module, text in texts.items():
        for qualified, first, last, _ in definitions(text, module):
            name = qualified.split(".")[-1]
            if name not in exempt and all(
                m == module and first <= line <= last for m, line in uses[name]
            ):
                uncalled.append("%s:%d %s" % (module, first, qualified))
    assert not uncalled, "no caller in src/: " + ", ".join(uncalled)
