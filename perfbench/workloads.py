"""The three benchmark workloads, each a list of certificates.

A workload function returns ``(certs, sizes)``: ``certs`` is a list of
``(name, ok)`` pairs, one per certificate attempted, and ``sizes`` gives
the workload's input and object sizes for the report.  The functions look
every library routine up through its module at call time, so the wrappers
of ``tracer.py`` see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from osptwist import algebra, cli, quantum, twist

# Every anchor of the seed's n=2 battery.  The CLI may add checks or relabel
# them later; a report is scored on these plus whatever else it lists.
BATTERY_ANCHORS = (
    "algebra.dimension", "algebra.form-invariance", "algebra.parity",
    "algebra.jacobi", "algebra.supertrace-form",
    "cybe.jordanian", "cybe.super-jordanian", "cybe.extended-super-jordanian",
    "cybe.extended-plus-long-wedge", "cybe.cascade-symbolic", "cybe.full-borel",
    "cybe.casimir-invariance", "cybe.spectral-certificate",
    "cybe.cobracket-kernel-closed", "cybe.cobracket-kernel-contains",
    "contraction.pole-cancellation", "contraction.constant-split",
    "contraction.spectral-part", "contraction.t-part",
    "twist.counit", "twist.factor-commutation", "twist.cocycle.jordanian",
    "twist.cocycle.extended-super-jordanian", "twist.cocycle.full-chain",
    "twist.cocycle.rep", "twist.primitives", "twist.tilde-closed-forms",
    "quantum.augmentation", "quantum.qybe.jordanian", "quantum.triangularity",
    "quantum.qybe.rep", "quantum.intertwining", "quantum.classical-limit",
    "quantum.exp-r.qybe", "quantum.l.shape", "quantum.l.rep-consistency",
    "quantum.rtt", "quantum.l.frt",
)

# Term counts of the full-chain twist F and of R = flip(F) F^-1 at n=2, d=6.
FINGERPRINTS_D6 = {"F": 5392, "R": 28470}

REP_CHAINS = (
    ("jordanian", ("jordanian",)),
    ("three-factor", ("super", "extension", "jordanian")),
    ("full-chain", ("sj2", "super", "extension", "jordanian")),
)
RANK_SUITES = ("algebra", "cybe", "contraction")

# Ranks built during set-up, and the certificate count a run that crashes
# is charged with.
RANKS = {"verify-d5": (2,), "quantum-d6": (2,), "exact-rank": (2, 3, 4)}
EXPECTED_CERTS = {
    "verify-d5": len(BATTERY_ANCHORS),
    "quantum-d6": 9,
    "exact-rank": len(REP_CHAINS) + 2 * (
        sum(a.split(".")[0] in RANK_SUITES for a in BATTERY_ANCHORS) + 1
    ),
}
SEED_USED = {"verify-d5": False, "quantum-d6": True, "exact-rank": False}


def score_report(report: dict, exit_code: int, anchors=BATTERY_ANCHORS, prefix=""):
    """Certificates of one CLI report: every listed check must pass and every
    expected anchor must be present.  A nonzero exit status with no failing
    check is charged as one more failure."""
    status = {c["anchor"]: c["status"] for c in report["checks"]}
    names = list(anchors) + [a for a in status if a not in anchors]
    certs = [(prefix + a, status.get(a) == "pass") for a in names]
    if exit_code != 0 and all(ok for _, ok in certs):
        certs.append((prefix + "cli.exit-status", False))
    return certs


def verify_d5(seed: int):
    """The user's own command: osp-verify all --n 2 --degree 5 --format json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["all", "--n", "2", "--degree", "5", "--format", "json"])
    report = json.loads(out.getvalue())
    certs = score_report(report, code)
    return certs, {"n": 2, "degree": 5, "checks": len(report["checks"])}


def frt_candidates(lop):
    """Nonzero strictly upper entries (i, j) of L that do not straddle the
    centre index.  The four straddling entries each take 5-8 times longer,
    so drawing from them would make run length depend on the seed."""
    mid = lop.dim // 2
    return [
        (i, j)
        for i in range(lop.dim)
        for j in range(i + 1, lop.dim)
        if not lop.entry(i, j).is_zero and not i < mid < j
    ]


def quantum_d6(seed: int, degree: int = 6, expected=FINGERPRINTS_D6):
    """One F and one R at the contract degree, then the d=6 quantum checks
    of the acceptance gate, with two FRT entries drawn by the seed."""
    alg = algebra.build_osp(2)
    f = twist.full_chain(alg, degree)
    r = quantum.universal_R(f)
    certs = [
        ("fingerprint.F.terms", len(f.element.terms) == expected["F"]),
        ("fingerprint.R.terms", len(r.element.terms) == expected["R"]),
        ("quantum.triangularity", quantum.triangularity_residual(r).is_zero),
        ("quantum.qybe.rep", quantum.qybe_residual_rep(r).is_zero),
    ]
    lop = quantum.l_operator(r)
    certs.append(("quantum.l.shape", lop.shape_ok() and lop.diagonal_unit_ok()))
    certs.append(("quantum.l.rep-consistency", lop.to_matrix() == r.rep_matrix))
    certs.append(("quantum.rtt", quantum.rtt_residual(r).is_zero))
    entries = sorted(random.Random(seed).sample(frt_candidates(lop), 2))
    for i, j in entries:
        certs.append(("quantum.l.frt[%d,%d]" % (i, j), lop.frt_residual(i, j).is_zero))
    sizes = {
        "n": 2,
        "degree": degree,
        "F_terms": len(f.element.terms),
        "R_terms": len(r.element.terms),
        "frt_entries": entries,
    }
    return certs, sizes


def exact_rank(seed: int):
    """The PBW-free paths: rep-level cocycles at n=2, then the algebra, cybe
    and contraction suites and the exp-r braid relation at n=3 and n=4."""
    alg2 = algebra.build_osp(2)
    certs = [
        ("n2.twist.rep-cocycle." + label,
         twist.rep_cocycle_residual(alg2, kinds).is_zero)
        for label, kinds in REP_CHAINS
    ]
    suite_anchors = [a for a in BATTERY_ANCHORS if a.split(".")[0] in RANK_SUITES]
    for n in (3, 4):
        for suite in RANK_SUITES:
            report = cli.run_suite(suite, n=n, degree=6)
            anchors = [a for a in suite_anchors if a.startswith(suite + ".")]
            certs += score_report(report.to_dict(), 0, anchors, "n%d." % n)
        alg = algebra.build_osp(n)
        certs.append((
            "n%d.quantum.exp-r.qybe" % n,
            quantum.qybe_residual_rep(quantum.exp_r_matrix(alg), alg).is_zero,
        ))
    sizes = {"ranks": [2, 3, 4], "cube_dims": [125, 343, 729], "checks": len(certs)}
    return certs, sizes


WORKLOADS = {
    "verify-d5": verify_d5,
    "quantum-d6": quantum_d6,
    "exact-rank": exact_rank,
}
