"""Command-line front end: run named verification suites and report every
certified identity with a CI-friendly exit code.

Every check is one record of the table ``_ANCHORS``, in report order:
(anchor, title, certified, build, certify).  The anchor is a stable dotted
name ("suite.check"), so reports can be diffed across runs; a suite is the
records whose anchor starts with its name.  ``build`` returns the object
the check certifies (an r-matrix, a twist F, an R, an L-operator, the
cobracket kernel, the contraction limit, or a tuple of these), and
``certify`` re-runs a library-level certificate on it (a residual that
must be zero, a structural predicate, or an exact rep-matrix identity).
A library error in either phase makes the check fail.  Checks whose
objects live at a grade truncation report the degree they are certified
to; exact matrix-level checks report "exact".

One run_suite call builds each object its checks share once, inside the
first check that reads it: the algebra, its Casimir tensor, the cobracket
kernel of the extended block, the contraction limit, the chain workshop,
and the full-chain F, its R and R's L-operator at each degree.  So the
twist suite's full-chain cocycle and the quantum suite's R read one F.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import quantum as qt
from . import rmatrix as rm
from . import twist as tws
from .algebra import build_osp, check_jacobi
from .errors import InvalidOption, OspTwistError, UnknownSuite
from .scalars import rref

SUITE_NAMES = ("algebra", "cybe", "contraction", "twist", "quantum")


class SuiteReport:
    """Ordered check records for one suite run.

    Every record is a dict {name, anchor, status, certified, ms}; the
    overall status is pass iff every record passes.  Two runs with the
    same options produce the same records in the same order (only the
    wall-clock ms field varies).
    """

    __slots__ = ("suite", "n", "degree", "checks")

    def __init__(self, suite, n, degree, checks):
        self.suite = suite
        self.n = n
        self.degree = degree
        self.checks = checks

    @property
    def overall(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "options": {"n": self.n, "degree": self.degree},
            "checks": self.checks,
            "status": "pass" if self.overall else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            cert = c["certified"]
            cert_s = cert if cert == "exact" else "certified to degree %d" % cert
            lines.append(
                "[%s] %-42s %s (%s, %d ms)"
                % (c["status"], c["anchor"], c["name"], cert_s, c["ms"])
            )
        npass = sum(1 for c in self.checks if c["status"] == "pass")
        lines.append(
            "suite %s: %s (%d/%d checks)"
            % (
                self.suite,
                "pass" if self.overall else "FAIL",
                npass,
                len(self.checks),
            )
        )
        return "\n".join(lines)


class _Run:
    """The objects that the anchors of one run_suite call share.  Each is
    built inside the first anchor that reads it and kept for the rest of
    the run; a build that raises is not kept, so the next anchor that
    reads the object tries again."""

    def __init__(self, n, degree):
        self.n = n
        self.degree = degree
        self._made = {}

    @tws._memoized
    def alg(self):
        return build_osp(self.n)

    @tws._memoized
    def casimir(self):
        return rm.casimir_tensor(self.alg())

    @tws._memoized
    def kernel(self):
        """The cobracket kernel of the extended block."""
        return rm.cobracket_kernel(
            self.alg(), rm.r_extended_super_jordanian(self.alg())
        )

    @tws._memoized
    def limit(self):
        return rm.contraction_limit(self.alg())

    @tws._memoized
    def workshop(self):
        return tws.workshop(self.alg(), self.degree)

    @tws._memoized
    def F(self, degree):
        return tws.full_chain(self.alg(), degree)

    @tws._memoized
    def R(self, degree):
        return qt.universal_R(self.F(degree))

    @tws._memoized
    def L(self, degree):
        return qt.l_operator(self.R(degree))

    def rep(self):
        """The degree of the exact rep checks' R and L: no lower than the
        one at which R's image in the defining rep is exact."""
        return max(self.degree, qt.rep_exact_degree(self.alg()))


def _degree(degree):
    """The ``certified`` of an anchor certified to the run's degree."""
    return degree


def _solves_cybe(r) -> bool:
    return rm.cybe_residual(r).is_zero


def _solves_spectral(c) -> bool:
    return rm.spectral_residual_rational(c).is_zero


def _is_cocycle(f) -> bool:
    return tws.cocycle_residual(f).is_zero


def _braids_in_rep(r) -> bool:
    return qt.qybe_residual_rep(r).is_zero


def _all_equal(pairs) -> bool:
    return all(a == b for a, b in pairs)


def _kernel_contains(alg_kernel) -> bool:
    alg, kernel = alg_kernel
    names = ("h2", "+2e1", "+2e2", "+e2") if alg.n >= 2 else ("+2e1",)

    def unit(name):
        vec = [Fraction(0)] * alg.size
        vec[alg.generator_index(name)] = Fraction(1)
        return vec

    return all(rm.span_contains(kernel, unit(name)) for name in names)


def _primitive_pairs(run):
    # the tilded generators are primitive for the three-factor coproduct;
    # that is what lets the last link ride on them
    esj = tws.extended_super_jordanian(run.alg(), run.degree)
    ws = run.workshop()
    return [
        (esj, x) for x in (ws.sigma(), ws.gen("J"), ws.y_tilde(), ws.w_tilde())
    ]


def _tilde_forms(run):
    ws = run.workshop()
    return [(ws.y_tilde(), ws.y_tilde_closed()), (ws.w_tilde(), ws.w_tilde_closed())]


# Every check, in report order: (anchor, title, certified, build, certify).
# ``build(run)`` returns the object the anchor certifies, never the run;
# ``certify`` maps that object to a bool.  ``certified`` is "exact", a
# degree, or a function of the run's degree.
_ANCHORS = (
    ("algebra.dimension", "basis size equals 2n^2+3n", "exact",
     _Run.alg, lambda alg: alg.size == 2 * alg.n * alg.n + 3 * alg.n),
    ("algebra.form-invariance",
     "every basis matrix preserves the graded bilinear form", "exact",
     _Run.alg, lambda alg: all(alg.preserves_form(b.matrix) for b in alg.basis)),
    ("algebra.parity", "parity matches root type (odd iff short root)", "exact",
     _Run.alg,
     lambda alg: all(b.parity == int(b.kind == "odd") for b in alg.basis)),
    ("algebra.jacobi", "graded Jacobi identity over all basis triples", "exact",
     _Run.alg, lambda alg: not check_jacobi(alg)),
    # full rank: one pivot per basis element
    ("algebra.supertrace-form", "supertrace form is nondegenerate", "exact",
     _Run.alg, lambda alg: len(rref(alg.gram())[1]) == alg.size),
    ("cybe.jordanian", "rank-one jordanian block solves the classical YBE",
     "exact", lambda run: rm.r_jordanian(run.alg()), _solves_cybe),
    ("cybe.super-jordanian",
     "odd-extended jordanian block solves the classical YBE", "exact",
     lambda run: rm.r_super_jordanian(run.alg()), _solves_cybe),
    ("cybe.extended-super-jordanian",
     "fully extended first block solves the classical YBE", "exact",
     lambda run: rm.r_extended_super_jordanian(run.alg()), _solves_cybe),
    ("cybe.extended-plus-long-wedge",
     "first block plus commuting long-root wedge still solves", "exact",
     lambda run: rm.r_extended_super_jordanian(run.alg())
     + rm.r_long_root_wedge(run.alg(), 1, 2), _solves_cybe),
    ("cybe.cascade-symbolic", "weighted cascade solves for symbolic weights",
     "exact", lambda run: rm.r_cascade(run.alg()), _solves_cybe),
    ("cybe.full-borel", "unit-weight cascade solves the classical YBE", "exact",
     lambda run: rm.r_full_borel(run.alg()), _solves_cybe),
    ("cybe.casimir-invariance",
     "invariant two-tensor is killed by every adjoint action", "exact",
     _Run.casimir, lambda cas: all(
         rm.adjoint_action(i, cas).is_zero for i in range(cas.algebra.size))),
    ("cybe.spectral-certificate",
     "invariant tensor passes the cleared-denominator residual", "exact",
     _Run.casimir, _solves_spectral),
    ("cybe.cobracket-kernel-closed",
     "cobracket kernel of the extended block is a subalgebra", "exact",
     lambda run: (run.alg(), run.kernel()),
     lambda ak: rm.kernel_closed_under_bracket(*ak)),
    ("cybe.cobracket-kernel-contains",
     "kernel contains the four expected undeformed generators", "exact",
     lambda run: (run.alg(), run.kernel()), _kernel_contains),
    ("contraction.pole-cancellation", "scaling limit leaves no negative powers",
     4, _Run.limit,
     lambda lim: all(c.min_deg >= 0 for c in lim.series.terms.values())),
    ("contraction.constant-split",
     "constant term is invariant-over-s plus the paired-root t-part", 4,
     lambda run: (run.limit(), rm.contraction_expected_t_part(run.alg())),
     lambda le: le[0].constant == le[0].spectral_part + le[1]),
    ("contraction.spectral-part",
     "invariant summand solves the parameter-dependent YBE", "exact",
     _Run.casimir, _solves_spectral),
    ("contraction.t-part", "paired-root summand solves the constant YBE",
     "exact", lambda run: run.limit().t_part, _solves_cybe),
    ("twist.counit", "all five factors satisfy both counit conditions", _degree,
     lambda run: [
         tws.build_factor(run.alg(), k, run.degree) for k in tws.FACTOR_KINDS
     ],
     lambda factors: all(f.counit_ok() for f in factors)),
    ("twist.factor-commutation", "odd factor and extension factor commute",
     _degree,
     lambda run: (run.workshop().factor("extension"),
                  run.workshop().factor("super")),
     lambda es: es[0] * es[1] == es[1] * es[0]),
    ("twist.cocycle.jordanian", "jordanian factor cocycle residual vanishes",
     _degree, lambda run: tws.build_factor(run.alg(), "jordanian", run.degree),
     _is_cocycle),
    ("twist.cocycle.extended-super-jordanian",
     "three-factor chain cocycle residual vanishes", _degree,
     lambda run: tws.extended_super_jordanian(run.alg(), run.degree),
     _is_cocycle),
    ("twist.cocycle.full-chain", "complete chain cocycle residual vanishes",
     _degree, lambda run: run.F(run.degree), _is_cocycle),
    ("twist.cocycle.rep", "complete chain cocycle holds exactly in the cubed rep",
     "exact", _Run.alg,
     lambda alg: tws.rep_cocycle_residual(alg, tws.FULL_CHAIN_KINDS).is_zero),
    ("twist.primitives", "generators primitive for the three-factor coproduct",
     _degree, _primitive_pairs,
     lambda pairs: _all_equal(
         (tws.twisted_coproduct(f, x), tws.primitive_part(x)) for f, x in pairs)),
    ("twist.tilde-closed-forms",
     "conjugation-defined tilded generators match closed forms", _degree,
     _tilde_forms, _all_equal),
    ("quantum.augmentation", "both counits of the full-chain R give 1", _degree,
     lambda run: run.R(run.degree), lambda r: r.augmentation_ok()),
    ("quantum.qybe.jordanian", "jordanian R satisfies the universal braid relation",
     _degree,
     lambda run: qt.universal_R(
         tws.build_factor(run.alg(), "jordanian", run.degree)),
     lambda r: qt.qybe_residual(r).is_zero),
    ("quantum.triangularity", "flipped R times R is the identity", _degree,
     lambda run: run.R(run.degree),
     lambda r: qt.triangularity_residual(r).is_zero),
    ("quantum.qybe.rep",
     "full-chain R satisfies the braid relation exactly in the cubed rep",
     "exact", lambda run: run.R(run.rep()), _braids_in_rep),
    ("quantum.intertwining",
     "R intertwines twisted and flipped coproducts (sampled)", _degree,
     lambda run: (run.R(run.degree),
                  [run.workshop().gen(nm) for nm in ("H", "v+", "X+")]),
     lambda rx: all(qt.intertwining_residual(rx[0], x).is_zero for x in rx[1])),
    # -2 times the grade-2 part of R: the eta^1 coefficient of its grading
    # family
    ("quantum.classical-limit",
     "first order of the grading family is the classical cascade", _degree,
     lambda run: (run.R(run.degree), rm.r_full_borel(run.alg())),
     lambda rc: qt.classical_limit(rc[0]) == rc[1]),
    ("quantum.exp-r.qybe",
     "quadratic exponential of rep r solves the braid relation in a formal "
     "parameter", "exact",
     lambda run: qt.exp_r_matrix(run.alg()), _braids_in_rep),
    ("quantum.l.shape",
     "L-operator is upper triangular with unit center and inverse corners",
     _degree, lambda run: run.L(run.degree),
     lambda l: l.shape_ok() and l.diagonal_unit_ok()),
    ("quantum.l.rep-consistency",
     "L-operator evaluated rep-side reproduces the rep R", "exact",
     lambda run: (run.L(run.rep()), run.R(run.rep())),
     lambda lr: lr[0].to_matrix() == lr[1].rep_matrix),
    ("quantum.rtt", "graded RTT relation holds exactly in the cubed rep", "exact",
     lambda run: (run.R(run.rep()), run.L(run.rep())),
     lambda rl: qt.rtt_residual(rl[0], l=rl[1]).is_zero),
    ("quantum.l.frt", "entry coproducts follow the matrix-product law (sampled)",
     lambda degree: max(degree - 1, 0), lambda run: run.L(run.degree),
     lambda l: all(l.frt_residual(i, j).is_zero for i, j in ((0, 0), (0, 2)))),
)


def _run_checks(suite, run, records) -> SuiteReport:
    checks = []
    for anchor, title, certified, build, certify in records:
        t0 = time.perf_counter()
        try:
            ok = bool(certify(build(run)))
        except OspTwistError:
            ok = False
        ms = int((time.perf_counter() - t0) * 1000)
        if callable(certified):
            certified = certified(run.degree)
        checks.append(
            {
                "name": title,
                "anchor": anchor,
                "status": "pass" if ok else "fail",
                "certified": certified,
                "ms": ms,
            }
        )
    return SuiteReport(suite, run.n, run.degree, checks)


def _require_positive(option: str, value) -> None:
    """The one check of the numeric options: InvalidOption unless
    ``value`` is a positive integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidOption(
            "%s must be a positive integer, got %r" % (option, value)
        )


def run_suite(name: str, n: int = 2, degree: int = 6) -> SuiteReport:
    """Execute one named suite (or "all") and return its report.

    Raises UnknownSuite for a name outside the fixed set and InvalidOption
    for out-of-range options.  Check order is fixed, so reports for
    identical inputs are identical apart from wall-clock times.
    """
    _require_positive("--n", n)
    _require_positive("--degree", degree)
    if name != "all" and name not in SUITE_NAMES:
        raise UnknownSuite(
            "unknown suite %r; choose from %s or 'all'"
            % (name, ", ".join(SUITE_NAMES))
        )
    records = [
        rec
        for rec in _ANCHORS
        if name in ("all", rec[0].split(".")[0])
        # the long-root wedge needs a second long root
        and (n >= 2 or rec[0] != "cybe.extended-plus-long-wedge")
    ]
    return _run_checks(name, _Run(n, degree), records)


# --------------------------------------------------------------------------
# Canonical dumps
# --------------------------------------------------------------------------


def _matrix_payload(m) -> dict:
    return {
        "%d,%d" % key: str(c) for key, c in sorted(m.entries.items())
    }


def dump_payload(kind: str, n: int = 2) -> dict:
    """Deterministic description of the basic objects, for inspection and
    for diffing against other implementations.  Raises InvalidOption for
    an unknown kind or a rank that is not a positive integer."""
    _require_positive("--n", n)
    alg = build_osp(n)
    if kind == "algebra":
        return {
            "n": n,
            "dimension": alg.size,
            "generators": [
                {
                    "index": b.index,
                    "name": b.name,
                    "parity": b.parity,
                    "grade": b.g2,
                    "root": list(b.root),
                }
                for b in alg.basis
            ],
        }
    if kind == "rep":
        return {
            "n": n,
            "space_parities": list(alg.pv),
            "matrices": {
                b.name: _matrix_payload(b.matrix) for b in alg.basis
            },
        }
    if kind == "rmatrix":
        named = {
            "jordanian": rm.r_jordanian(alg),
            "super-jordanian": rm.r_super_jordanian(alg),
            "extended-super-jordanian": rm.r_extended_super_jordanian(alg),
            "cascade-symbolic": rm.r_cascade(alg),
            "full-borel": rm.r_full_borel(alg),
        }
        return {"n": n, "tensors": {k: str(v) for k, v in named.items()}}
    raise InvalidOption(
        "unknown dump target %r; choose algebra, rep or rmatrix" % (kind,)
    )


def _dump_text(payload: dict) -> str:
    if "generators" in payload:
        lines = [
            "osp(1|%d): dimension %d" % (2 * payload["n"], payload["dimension"])
        ]
        for g in payload["generators"]:
            lines.append(
                "%3d  %-8s parity %d  grade %d  root %s"
                % (g["index"], g["name"], g["parity"], g["grade"], g["root"])
            )
        return "\n".join(lines)
    if "matrices" in payload:
        lines = ["space parities: %s" % (payload["space_parities"],)]
        for name, entries in payload["matrices"].items():
            body = ", ".join("(%s)=%s" % kv for kv in entries.items())
            lines.append("%-8s %s" % (name, body))
        return "\n".join(lines)
    lines = []
    for name, text in payload["tensors"].items():
        lines.append("%s:" % name)
        lines.append("  %s" % text)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="osptwist",
        description="run exact verification suites for the "
        "orthosymplectic twist stack",
    )
    p.add_argument(
        "suite",
        nargs="?",
        default=None,
        help="suite name: %s or all" % ", ".join(SUITE_NAMES),
    )
    p.add_argument("--suite", dest="suite_flag", default=None)
    p.add_argument("--n", type=int, default=2, help="algebra rank (default 2)")
    p.add_argument(
        "--degree", type=int, default=6, help="truncation degree (default 6)"
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    p.add_argument(
        "--dump",
        choices=("algebra", "rep", "rmatrix"),
        default=None,
        help="print a canonical dump instead of running checks",
    )
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.dump is not None:
            payload = dump_payload(args.dump, args.n)
            if args.fmt == "json":
                print(json.dumps(payload, indent=2))
            else:
                print(_dump_text(payload))
            return 0
        if args.suite is not None and args.suite_flag is not None:
            if args.suite != args.suite_flag:
                raise InvalidOption(
                    "positional suite %r conflicts with --suite %r"
                    % (args.suite, args.suite_flag)
                )
        name = args.suite_flag or args.suite or "all"
        report = run_suite(name, n=args.n, degree=args.degree)
    except (UnknownSuite, InvalidOption) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(report.to_json() if args.fmt == "json" else report.to_text())
    return 0 if report.overall else 1


if __name__ == "__main__":
    sys.exit(main())
