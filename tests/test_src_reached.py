"""Every function of ``src/osptwist`` is entered by a run of the package.

``test_src_callers.py`` matches names, so a routine whose only callers
are tests passes it.  This guard runs a fixed battery in a fresh
interpreter under ``sys.setprofile`` and fails on any function of the
package (dunder methods aside) that the battery never enters, apart from
the names in ``EXCEPTIONS``, each with its reason, and the routines the
benchmark tracer wraps, matched by qualified name (``benchmark_targets``).
The battery is
``osp-verify all`` at n=2, degree 3, and at n=1 and n=3, degree 2; the
algebra, cybe, contraction and quantum suites at n=4, degree 2; every
``--dump`` in both formats; one text report; and the README's library
example.  A listed exception that the battery enters, or that names no
function, fails too, so the list cannot outlive its reasons."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_readme import python_blocks
from test_src_callers import benchmark_targets, definitions, workload_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "osptwist"

_RUNS = [
    ["all", "--n", "2", "--degree", "3", "--format", "json"],
    ["all", "--n", "1", "--degree", "2", "--format", "json"],
    ["all", "--n", "3", "--degree", "2"],
] + [
    [suite, "--n", "4", "--degree", "2", "--format", "json"]
    for suite in ("algebra", "cybe", "contraction", "quantum")
] + [
    ["--dump", kind, "--format", fmt]
    for kind in ("algebra", "rep", "rmatrix")
    for fmt in ("text", "json")
]

BATTERY = "from osptwist import cli\n%s\nfor argv in %r:\n    cli.main(argv)\n" % (
    "".join(python_blocks()),
    _RUNS,
)

# Run in a fresh interpreter: the code objects entered by ``BATTERY``
# (the first argument), as (file, first line) pairs, one JSON list on
# stdout.  The battery's own output is dropped.
_TRACER = """
import contextlib, io, json, sys
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

with contextlib.redirect_stdout(io.StringIO()):
    sys.setprofile(hook)
    try:
        exec(compile(sys.argv[1], "battery", "exec"), {"__name__": "battery"})
    finally:
        sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in seen})))
"""

_SQRT = (
    "ue_sqrt, a name the benchmark wraps, is its only caller that the "
    "battery could reach"
)
_SPLIT = (
    "the split path: a product splits only at degree >= 5 on two CPUs, "
    "and _child_share runs in a forked child that the hook cannot see"
)
_PRINTING = "only printing an element or a tensor reaches it"
_TERMS = "the public constructor and the terms lookups (UETensor(...), .terms[key])"
_WORKLOADS = "perfbench/workloads.py calls it"

# "module.Qualified.name" -> why the battery need not enter it
EXCEPTIONS = {
    "quantum.LOperator.entry": _WORKLOADS,
    "scalars.Ring.log": "its code is LaurentSeries.log (log = Ring.log), "
    "a routine the benchmark tracer wraps",
    "pbw.PBWTable.sizes": "the memo report, which only tests read today; "
    "the ROADMAP plans to report it under osp-verify --profile and in the "
    "benchmark trace",
    "scalars.fraction_sqrt": _SQRT,
    "scalars.Poly.as_fraction": _SQRT + "; LaurentSeries.coefficient "
    "calls it for a constant coefficient, and the battery's have none",
    "pbw._shares": _SPLIT,
    "pbw._split_sums": _SPLIT,
    "pbw._split_sums.summed": _SPLIT,
    "pbw._child_share": _SPLIT,
    "pbw._adopt": _SPLIT,
    "pbw._adopt.rewrite": _SPLIT,
    "pbw.UEElement._sort_key": _PRINTING,
    "pbw.UEElement._body": _PRINTING,
    "pbw.UEElement._scaled": _PRINTING,
    "pbw.UETensor._sort_key": _PRINTING,
    "pbw.UETensor._body": _PRINTING,
    "scalars.Poly.max_exponent": _PRINTING + " with Laurent coefficients, "
    "or inverting an exact series",
    "pbw.UETensor._key": _TERMS,
    "pbw._Terms._find": _TERMS,
    "pbw._Terms.coefficient": _TERMS,
    "pbw.UEElement._decoder": _TERMS,
    "scalars.Poly.one_like": "the unit of the Ring protocol, which powers "
    "and log read on any ring",
    "scalars.LaurentSeries.one_like": "the unit of the Ring protocol, "
    "which powers and log read on any ring",
    "rmatrix.LieTensor.one_like": "only raises: a classical tensor has no unit",
    "scalars.Ring.series": "only raises: a ring with no series entry "
    "(Poly) refuses exp and log",
    "pbw.UETensor.scale_by_grade": "the eta family of universal_R, which "
    "the benchmark's negative control passes; it waits for the next "
    "change under perfbench/",
}


def entered(battery: str, path: Path) -> set:
    """(resolved file, first line) of each code object that ``battery``
    enters, run with ``path`` first on the import path."""
    paths = filter(None, [str(path), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run(
        [sys.executable, "-c", _TRACER, battery],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return {(str(Path(f).resolve()), line) for f, line in json.loads(run.stdout)}


def functions(directory: Path):
    """("module.Qualified.name", resolved file, first line) of each def,
    not class, in the ``*.py`` files of ``directory``, as ``definitions``
    lists them."""
    for path in sorted(directory.glob("*.py")):
        for name, first, _, is_class in definitions(path.read_text(), path.stem):
            if not is_class:
                yield name, str(path.resolve()), first


def unreached(directory: Path, seen: set) -> list:
    """The names of the functions of ``directory`` whose code ``seen``
    leaves out, in file and line order."""
    return [
        name
        for name, path, first in sorted(functions(directory), key=lambda f: f[1:])
        if (path, first) not in seen
    ]


def test_every_src_function_is_entered_by_the_battery():
    missed = unreached(SRC, entered(BATTERY, ROOT / "src"))
    names = {name for name, _, _ in functions(SRC)}
    assert sorted(set(EXCEPTIONS) - names) == [], "exceptions that name no function"
    assert sorted(set(EXCEPTIONS) - set(missed)) == [], "exceptions the battery enters"
    read = workload_names()
    unread = [
        name for name, why in EXCEPTIONS.items()
        if why == _WORKLOADS and name.split(".")[-1] not in read
    ]
    assert unread == [], "exceptions that perfbench/workloads.py does not name"
    exempt = set(EXCEPTIONS) | benchmark_targets()
    left = [name for name in missed if name not in exempt]
    assert left == [], "never entered: " + ", ".join(left)


def test_the_checker_reports_a_function_the_battery_never_calls(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def called():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def never():\n"
        "    return 2\n"
    )
    seen = entered("import mod\nmod.called()\n", tmp_path)
    assert unreached(tmp_path, seen) == ["mod.never"]
