"""Command-line front end: run named verification suites and report every
certified identity with a CI-friendly exit code.

Each check re-runs a library-level certificate (a residual that must be
zero, a structural predicate, or an exact rep-matrix identity) and gets a
stable dotted anchor so reports can be diffed across runs.  Checks whose
objects live at a grade truncation report the degree they are certified
to; exact matrix-level checks report "exact".
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache

from . import quantum as qt
from . import rmatrix as rm
from . import twist as tws
from .algebra import build_osp, check_jacobi
from .errors import InvalidOption, OspTwistError, UnknownSuite

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


def _run_checks(suite, n, degree, rows) -> SuiteReport:
    records = []
    for anchor, name, certified, thunk in rows:
        t0 = time.perf_counter()
        try:
            ok = bool(thunk())
        except OspTwistError:
            ok = False
        ms = int((time.perf_counter() - t0) * 1000)
        records.append(
            {
                "name": name,
                "anchor": anchor,
                "status": "pass" if ok else "fail",
                "certified": certified,
                "ms": ms,
            }
        )
    return SuiteReport(suite, n, degree, records)


# --------------------------------------------------------------------------
# Suite definitions
# --------------------------------------------------------------------------


def _algebra_checks(n, degree):
    alg = build_osp(n)

    def form_invariant():
        return all(alg.preserves_form(b.matrix) for b in alg.basis)

    def parity_pattern():
        return all(
            b.parity == (1 if b.kind == "odd" else 0) for b in alg.basis
        )

    def gram_invertible():
        alg.gram_inverse()
        return True

    return [
        (
            "algebra.dimension",
            "basis size equals 2n^2+3n",
            "exact",
            lambda: alg.size == 2 * n * n + 3 * n,
        ),
        (
            "algebra.form-invariance",
            "every basis matrix preserves the graded bilinear form",
            "exact",
            form_invariant,
        ),
        (
            "algebra.parity",
            "parity matches root type (odd iff short root)",
            "exact",
            parity_pattern,
        ),
        (
            "algebra.jacobi",
            "graded Jacobi identity over all basis triples",
            "exact",
            lambda: not check_jacobi(alg),
        ),
        (
            "algebra.supertrace-form",
            "supertrace form is nondegenerate",
            "exact",
            gram_invertible,
        ),
    ]


def _cybe_checks(n, degree):
    alg = build_osp(n)
    cas = rm.casimir_tensor(alg)

    def casimir_invariant():
        return all(
            not rm.adjoint_action(i, cas).terms for i in range(alg.size)
        )

    # the cobracket kernel of the extended block is computed once per suite
    # run, by the first check that needs it
    @cache
    def kernel():
        return rm.cobracket_kernel(alg, rm.r_extended_super_jordanian(alg))

    def kernel_closed():
        return rm.kernel_closed_under_bracket(alg, kernel())

    def kernel_contains():
        ker = kernel()
        expected = ("h2", "+2e1", "+2e2", "+e2") if n >= 2 else ("+2e1",)
        for name in expected:
            vec = [Fraction(0)] * alg.size
            vec[alg.generator_index(name)] = Fraction(1)
            if not rm.span_contains(ker, vec):
                return False
        return True

    rows = [
        (
            "cybe.jordanian",
            "rank-one jordanian block solves the classical YBE",
            "exact",
            lambda: not rm.cybe_residual(rm.r_jordanian(alg)).terms,
        ),
        (
            "cybe.super-jordanian",
            "odd-extended jordanian block solves the classical YBE",
            "exact",
            lambda: not rm.cybe_residual(rm.r_super_jordanian(alg)).terms,
        ),
        (
            "cybe.extended-super-jordanian",
            "fully extended first block solves the classical YBE",
            "exact",
            lambda: not rm.cybe_residual(
                rm.r_extended_super_jordanian(alg)
            ).terms,
        ),
    ]
    if n >= 2:
        rows.append(
            (
                "cybe.extended-plus-long-wedge",
                "first block plus commuting long-root wedge still solves",
                "exact",
                lambda: not rm.cybe_residual(
                    rm.r_extended_super_jordanian(alg)
                    + rm.r_long_root_wedge(alg, 1, 2)
                ).terms,
            )
        )
    rows.extend(
        [
            (
                "cybe.cascade-symbolic",
                "weighted cascade solves for symbolic weights",
                "exact",
                lambda: not rm.cybe_residual(rm.r_cascade(alg)).terms,
            ),
            (
                "cybe.full-borel",
                "unit-weight cascade solves the classical YBE",
                "exact",
                lambda: not rm.cybe_residual(rm.r_full_borel(alg)).terms,
            ),
            (
                "cybe.casimir-invariance",
                "invariant two-tensor is killed by every adjoint action",
                "exact",
                casimir_invariant,
            ),
            (
                "cybe.spectral-certificate",
                "invariant tensor passes the cleared-denominator residual",
                "exact",
                lambda: not rm.spectral_residual_rational(cas).terms,
            ),
            (
                "cybe.cobracket-kernel-closed",
                "cobracket kernel of the extended block is a subalgebra",
                "exact",
                kernel_closed,
            ),
            (
                "cybe.cobracket-kernel-contains",
                "kernel contains the four expected undeformed generators",
                "exact",
                kernel_contains,
            ),
        ]
    )
    return rows


def _contraction_checks(n, degree):
    alg = build_osp(n)

    # the limit is computed once per suite run; a failed attempt is not
    # remembered, so each check that needs it tries again
    @cache
    def limit():
        return rm.contraction_limit(alg)

    def run_limit():
        limit()
        return True

    def constant_split():
        res = limit()
        return (
            res.t_part == rm.contraction_expected_t_part(alg)
            and res.constant == res.spectral_part + res.t_part
        )

    def t_part_solves():
        return not rm.cybe_residual(limit().t_part).terms

    return [
        (
            "contraction.pole-cancellation",
            "scaling limit leaves no negative powers",
            4,
            run_limit,
        ),
        (
            "contraction.constant-split",
            "constant term is invariant-over-s plus the paired-root t-part",
            4,
            constant_split,
        ),
        (
            "contraction.spectral-part",
            "invariant summand solves the parameter-dependent YBE",
            "exact",
            lambda: not rm.spectral_residual_rational(
                rm.casimir_tensor(alg)
            ).terms,
        ),
        (
            "contraction.t-part",
            "paired-root summand solves the constant YBE",
            "exact",
            t_part_solves,
        ),
    ]


def _twist_checks(n, degree):
    alg = build_osp(n)
    ws = tws.workshop(alg, degree)

    def counits():
        return all(
            tws.build_factor(alg, k, degree).counit_ok()
            for k in tws.FACTOR_KINDS
        )

    def factor_commutation():
        fe = ws.factor("extension")
        fs = ws.factor("super")
        return fe * fs == fs * fe

    def primitives():
        # the tilded generators are primitive for the three-factor
        # coproduct; that is what lets the last link ride on them
        esj = tws.extended_super_jordanian(alg, degree)
        pairs = [
            (esj, ws.sigma()),
            (esj, ws.gen("J")),
            (esj, ws.y_tilde()),
            (esj, ws.w_tilde()),
        ]
        return all(
            tws.twisted_coproduct(f, x) == tws.primitive_part(x)
            for f, x in pairs
        )

    def tilde_closed_forms():
        return (
            ws.y_tilde() == ws.y_tilde_closed()
            and ws.w_tilde() == ws.w_tilde_closed()
        )

    return [
        (
            "twist.counit",
            "all five factors satisfy both counit conditions",
            degree,
            counits,
        ),
        (
            "twist.factor-commutation",
            "odd factor and extension factor commute",
            degree,
            factor_commutation,
        ),
        (
            "twist.cocycle.jordanian",
            "jordanian factor cocycle residual vanishes",
            degree,
            lambda: tws.cocycle_residual(
                tws.build_factor(alg, "jordanian", degree)
            ).is_zero,
        ),
        (
            "twist.cocycle.extended-super-jordanian",
            "three-factor chain cocycle residual vanishes",
            degree,
            lambda: tws.cocycle_residual(
                tws.extended_super_jordanian(alg, degree)
            ).is_zero,
        ),
        (
            "twist.cocycle.full-chain",
            "complete chain cocycle residual vanishes",
            degree,
            lambda: tws.cocycle_residual(tws.full_chain(alg, degree)).is_zero,
        ),
        (
            "twist.cocycle.rep",
            "complete chain cocycle holds exactly in the cubed rep",
            "exact",
            lambda: tws.rep_cocycle_residual(
                alg, qt.FULL_CHAIN_KINDS
            ).is_zero,
        ),
        (
            "twist.primitives",
            "generators primitive for the three-factor coproduct",
            degree,
            primitives,
        ),
        (
            "twist.tilde-closed-forms",
            "conjugation-defined tilded generators match closed forms",
            degree,
            tilde_closed_forms,
        ),
    ]


def _quantum_checks(n, degree):
    alg = build_osp(n)
    # the full chain's R is built once per suite run, by the first check
    # that needs it
    @cache
    def r_full():
        return qt.universal_R(tws.full_chain(alg, degree))

    def r_jord():
        return qt.universal_R(tws.build_factor(alg, "jordanian", degree))

    def intertwining():
        r = r_full()
        return all(
            qt.intertwining_residual(
                r, tws.workshop(alg, degree).gen(nm)
            ).is_zero
            for nm in ("H", "v+", "X+")
        )

    def classical_limit():
        # -2 times the grade-2 part of R: the eta^1 coefficient of its
        # grading family
        return qt.classical_limit(r_full()) == rm.r_full_borel(alg)

    def exp_r_qybe():
        r = qt.exp_r_matrix(alg)
        return qt.qybe_residual_rep(r, alg).is_zero

    def l_shape():
        l = qt.l_operator(r_full())
        return l.shape_ok() and l.diagonal_unit_ok()

    def l_rep_consistency():
        r = r_full()
        return qt.l_operator(r).to_matrix() == r.rep_matrix

    def frt_sampled():
        l = qt.l_operator(r_full())
        return all(l.frt_residual(i, j).is_zero for (i, j) in ((0, 0), (0, 2)))

    return [
        (
            "quantum.augmentation",
            "both counits of the full-chain R give 1",
            degree,
            lambda: r_full().augmentation_ok(),
        ),
        (
            "quantum.qybe.jordanian",
            "jordanian R satisfies the universal braid relation",
            degree,
            lambda: qt.qybe_residual(r_jord()).is_zero,
        ),
        (
            "quantum.triangularity",
            "flipped R times R is the identity",
            degree,
            lambda: qt.triangularity_residual(r_full()).is_zero,
        ),
        (
            "quantum.qybe.rep",
            "full-chain R satisfies the braid relation exactly in the cubed rep",
            "exact",
            lambda: qt.qybe_residual_rep(r_full()).is_zero,
        ),
        (
            "quantum.intertwining",
            "R intertwines twisted and flipped coproducts (sampled)",
            degree,
            intertwining,
        ),
        (
            "quantum.classical-limit",
            "first order of the grading family is the classical cascade",
            degree,
            classical_limit,
        ),
        (
            "quantum.exp-r.qybe",
            "quadratic exponential of rep r solves the braid relation in a formal parameter",
            "exact",
            exp_r_qybe,
        ),
        (
            "quantum.l.shape",
            "L-operator is upper triangular with unit center and inverse corners",
            degree,
            l_shape,
        ),
        (
            "quantum.l.rep-consistency",
            "L-operator evaluated rep-side reproduces the rep R",
            "exact",
            l_rep_consistency,
        ),
        (
            "quantum.rtt",
            "graded RTT relation holds exactly in the cubed rep",
            "exact",
            lambda: qt.rtt_residual(r_full()).is_zero,
        ),
        (
            "quantum.l.frt",
            "entry coproducts follow the matrix-product law (sampled)",
            max(degree - 1, 0),
            frt_sampled,
        ),
    ]


_SUITE_BUILDERS = {
    "algebra": _algebra_checks,
    "cybe": _cybe_checks,
    "contraction": _contraction_checks,
    "twist": _twist_checks,
    "quantum": _quantum_checks,
}


def run_suite(name: str, n: int = 2, degree: int = 6) -> SuiteReport:
    """Execute one named suite (or "all") and return its report.

    Raises UnknownSuite for a name outside the fixed set and InvalidOption
    for out-of-range options.  Check order is fixed, so reports for
    identical inputs are identical apart from wall-clock times.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidOption("--n must be a positive integer, got %r" % (n,))
    if not isinstance(degree, int) or degree < 1:
        raise InvalidOption(
            "--degree must be a positive integer, got %r" % (degree,)
        )
    if name == "all":
        checks = []
        for suite in SUITE_NAMES:
            checks.extend(_SUITE_BUILDERS[suite](n, degree))
        return _run_checks("all", n, degree, checks)
    builder = _SUITE_BUILDERS.get(name)
    if builder is None:
        raise UnknownSuite(
            "unknown suite %r; choose from %s or 'all'"
            % (name, ", ".join(SUITE_NAMES))
        )
    return _run_checks(name, n, degree, builder(n, degree))


# --------------------------------------------------------------------------
# Canonical dumps
# --------------------------------------------------------------------------


def _matrix_payload(m) -> dict:
    return {
        "%d,%d" % key: str(c) for key, c in sorted(m.entries.items())
    }


def dump_payload(kind: str, n: int = 2) -> dict:
    """Deterministic description of the basic objects, for inspection and
    for diffing against other implementations."""
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
