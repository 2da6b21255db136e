"""Command-line verification front end: suite reports, dumps, exit codes."""

import hashlib
import json
from fractions import Fraction

import pytest

from osptwist.algebra import OspAlgebra
from osptwist.cli import (
    SUITE_NAMES,
    SuiteReport,
    run_suite,
    dump_payload,
    main,
)
from osptwist.errors import InvalidOption, NotHomogeneous, UnknownSuite
from osptwist.pbw import UETensor
from osptwist.quantum import RMatrix
from osptwist.repmat import GradedMatrix
from osptwist.rmatrix import LieTensor
from osptwist.twist import Twist, TwistFactor


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("algebra", "cybe", "contraction", "twist", "quantum")


def test_run_suite_algebra_passes():
    rep = run_suite("algebra", n=2, degree=3)
    assert rep.overall
    d = rep.to_dict()
    assert d["suite"] == "algebra"
    assert d["options"] == {"n": 2, "degree": 3}
    assert d["status"] == "pass"
    for chk in d["checks"]:
        assert set(chk) == {"name", "anchor", "status", "certified", "ms"}
        assert chk["status"] == "pass"


def test_run_suite_contraction_certification_labels():
    rep = run_suite("contraction", n=2, degree=3)
    labels = {c["anchor"]: c["certified"] for c in rep.to_dict()["checks"]}
    assert labels["contraction.spectral-part"] == "exact"
    assert labels["contraction.pole-cancellation"] == 4


def test_constant_split_fails_on_a_wrong_expected_t_part(monkeypatch):
    """Negative control: the constant term is certified against the
    independently built t-part, so doubling that t-part fails it."""
    import osptwist.cli as cli

    real = cli.rm.contraction_expected_t_part
    monkeypatch.setattr(
        cli.rm, "contraction_expected_t_part", lambda alg: real(alg).scale(2)
    )
    rep = run_suite("contraction", n=2, degree=3)
    status = {c["anchor"]: c["status"] for c in rep.to_dict()["checks"]}
    assert status["contraction.constant-split"] == "fail"
    assert not rep.overall


def test_run_suite_all_concatenates_in_order():
    rep = run_suite("all", n=2, degree=3)
    anchors = [c["anchor"] for c in rep.to_dict()["checks"]]
    # grouped by suite, in the canonical order
    seen = []
    for a in anchors:
        head = a.split(".")[0]
        if not seen or seen[-1] != head:
            seen.append(head)
    assert seen == ["algebra", "cybe", "contraction", "twist", "quantum"]
    assert rep.overall


def test_run_suite_unknown_name():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense")


def test_run_suite_rejects_bad_options():
    with pytest.raises(InvalidOption):
        run_suite("algebra", n=0)
    with pytest.raises(InvalidOption):
        run_suite("algebra", degree=-1)
    # a bool is an int, and True == 1 would select the rank-1 algebra
    with pytest.raises(InvalidOption):
        run_suite("algebra", n=True)
    with pytest.raises(InvalidOption):
        run_suite("algebra", degree=False)


def test_quantum_suite_passes_at_degree_one(monkeypatch):
    """At degree 1 the exact rep checks read an R truncated at the degree
    where its rep image is exact, so none fails from truncation; the
    other checks keep the requested degree."""
    import osptwist.cli as cli

    real = cli.tws.full_chain
    degrees = []

    def recording(alg, degree=6):
        degrees.append(degree)
        return real(alg, degree)

    monkeypatch.setattr(cli.tws, "full_chain", recording)
    rep = run_suite("quantum", 2, 1)
    assert rep.overall, [c["anchor"] for c in rep.checks if c["status"] != "pass"]
    assert sorted(set(degrees)) == [1, 2]


def test_report_deterministic_modulo_timing():
    """Identical inputs give identical reports once the wall-time field is
    stripped (time is the one intentionally non-reproducible field)."""

    def strip(rep):
        d = rep.to_dict()
        for c in d["checks"]:
            c.pop("ms")
        return d

    assert strip(run_suite("contraction", n=2, degree=3)) == strip(
        run_suite("contraction", n=2, degree=3)
    )


def test_text_rendering_mentions_certification_degree():
    rep = run_suite("twist", n=2, degree=3)
    text = rep.to_text()
    assert "certified to degree 3" in text
    assert "suite twist: pass" in text


def test_json_rendering_round_trips():
    rep = run_suite("algebra", n=2, degree=3)
    d = json.loads(rep.to_json())
    assert d == rep.to_dict()


def test_dump_algebra_payload():
    d = dump_payload("algebra", 2)
    assert len(d["generators"]) == 14
    names = {g["name"] for g in d["generators"]}
    assert "+2e1" in names and "-e2" in names
    for g in d["generators"]:
        assert set(g) >= {"index", "name", "parity", "grade"}


def test_dump_rep_payload():
    d = dump_payload("rep", 2)
    assert d["space_parities"] == [0, 0, 1, 0, 0]
    mats = d["matrices"]
    assert mats["+2e1"] == {"0,4": "1"}
    assert mats["h1"] == {"0,0": "1", "4,4": "-1"}


def test_dump_rmatrix_payload():
    d = dump_payload("rmatrix", 2)
    assert "jordanian" in d["tensors"] and "full-borel" in d["tensors"]


def test_dump_rejects_unknown_kind():
    with pytest.raises(InvalidOption):
        dump_payload("spectra", 2)


def test_dump_rejects_a_bad_rank():
    with pytest.raises(InvalidOption):
        dump_payload("rep", -1)


# -- entry point ----------------------------------------------------------------


def test_main_success_exit_code(capsys):
    code = main(["algebra", "--degree", "3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_main_text_output(capsys):
    code = main(["contraction", "--degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite contraction: pass" in out


def test_main_usage_errors(capsys):
    assert main(["nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err.lower()
    assert main(["algebra", "--n", "0"]) == 2
    assert main(["algebra", "--suite", "cybe"]) == 2  # conflicting selectors
    capsys.readouterr()
    assert main(["--dump", "algebra", "--n", "0"]) == 2
    assert "--n must be a positive integer" in capsys.readouterr().err


def test_main_dump(capsys):
    assert main(["--dump", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "+2e1" in out


def test_main_reports_failure_with_exit_one(monkeypatch, capsys):
    """A failing check must flip the exit code to 1 (not an exception)."""
    import osptwist.cli as cli

    sabotaged = (
        "algebra.always-false", "deliberate failure", "exact",
        lambda run: None, lambda obj: False,
    )
    monkeypatch.setattr(cli, "_ANCHORS", (sabotaged,))
    code = main(["algebra"])
    out = capsys.readouterr().out
    assert code == 1
    assert "fail" in out


def test_check_error_is_reported_not_raised(monkeypatch, capsys):
    """A check that raises a library error is recorded as a failure."""
    import osptwist.cli as cli
    from osptwist.errors import OspTwistError

    def boom(run):
        raise OspTwistError("verifier internal mismatch")

    exploding = ("cybe.boom", "raises inside", "exact", boom, bool)
    monkeypatch.setattr(cli, "_ANCHORS", (exploding,))
    rep = run_suite("cybe")
    assert not rep.overall
    assert rep.to_dict()["checks"][0]["status"] == "fail"


def test_quantum_suite_builds_the_full_chain_R_once(monkeypatch):
    """The quantum checks share one full-chain R and one L-operator per
    suite run, the classical-limit check included; the only other R build
    is the jordanian one.  At degree 1 the exact rep checks read R at
    degree 2, so R and L are built once at each degree."""
    import osptwist.cli as cli

    real_r, real_l = cli.qt.universal_R, cli.qt.l_operator
    calls, l_caps = [], []

    def counting(twist, eta=None):
        calls.append((twist.factorization, eta))
        return real_r(twist, eta=eta)

    def counting_l(r):
        l_caps.append(r.element.g2cap)
        return real_l(r)

    monkeypatch.setattr(cli.qt, "universal_R", counting)
    monkeypatch.setattr(cli.qt, "l_operator", counting_l)
    for degree, full_degrees in ((3, [3]), (1, [1, 2])):
        calls.clear()
        l_caps.clear()
        rep = run_suite("quantum", n=2, degree=degree)
        assert rep.overall
        full = [c for c in calls if len(c[0]) == 4]
        assert len(calls) == len(full_degrees) + 1
        assert full == [(full[0][0], None)] * len(full_degrees)
        assert [c for c in calls if c not in full] == [(("jordanian",), None)]
        assert sorted(l_caps) == [2 * d for d in full_degrees]


def test_singular_gram_fails_the_supertrace_form_check(monkeypatch, capsys):
    """Negative control: with a zero Gram matrix on a fresh algebra the
    supertrace-form check reports fail (it used to raise ValueError out
    of the suite), the other algebra checks still pass and the exit code
    is 1."""
    import osptwist.cli as cli

    alg = OspAlgebra(2)
    alg.gram = lambda: [[Fraction(0)] * alg.size for _ in range(alg.size)]
    monkeypatch.setattr(cli, "build_osp", lambda n: alg)
    status = {
        c["anchor"]: c["status"]
        for c in run_suite("algebra", n=2, degree=3).to_dict()["checks"]
    }
    assert [a for a, s in status.items() if s != "pass"] == [
        "algebra.supertrace-form"
    ]
    assert main(["algebra"]) == 1
    assert "[fail] algebra.supertrace-form" in capsys.readouterr().out


def test_flipped_partner_sign_fails_form_invariance(monkeypatch):
    """Negative control: with the sign of the partner entry of "+e1"
    flipped on a fresh algebra, that matrix no longer preserves the form,
    its brackets leave the span of the basis and its supertrace pairing
    with "-e1" vanishes; the algebra suite reports the three failures
    instead of raising."""
    import osptwist.cli as cli

    alg = OspAlgebra(2)
    b = alg.basis[alg.generator_index("+e1")]
    b.matrix = GradedMatrix(
        alg.pv,
        {ij: c if ij == b.lead else -c for ij, c in b.matrix.entries.items()},
    )
    monkeypatch.setattr(cli, "build_osp", lambda n: alg)
    status = {
        c["anchor"]: c["status"]
        for c in run_suite("algebra", n=2, degree=3).to_dict()["checks"]
    }
    assert [a for a, s in status.items() if s != "pass"] == [
        "algebra.form-invariance", "algebra.jacobi", "algebra.supertrace-form"
    ]


def test_inhomogeneous_basis_matrix_fails_instead_of_raising(monkeypatch, capsys):
    """Negative control: an odd entry (0, 2) added to the even "+e1-e2"
    matrix of a fresh algebra makes it mix parities.  The membership test
    and the super commutator raise NotHomogeneous, an OspTwistError, so
    form-invariance and jacobi report fail, the other algebra checks still
    pass and the exit code is 1."""
    import osptwist.cli as cli

    alg = OspAlgebra(2)
    b = alg.basis[alg.generator_index("+e1-e2")]
    b.matrix = GradedMatrix(alg.pv, {**b.matrix.entries, (0, 2): 1})
    with pytest.raises(NotHomogeneous):
        alg.preserves_form(b.matrix)
    with pytest.raises(NotHomogeneous):
        b.matrix.super_commutator(b.matrix)
    monkeypatch.setattr(cli, "build_osp", lambda n: alg)
    status = {
        c["anchor"]: c["status"]
        for c in run_suite("algebra", n=2, degree=3).to_dict()["checks"]
    }
    assert [a for a, s in status.items() if s != "pass"] == [
        "algebra.form-invariance", "algebra.jacobi"
    ]
    assert main(["algebra"]) == 1
    assert "[fail] algebra.jacobi" in capsys.readouterr().out


@pytest.mark.parametrize("n", [3, 4])
def test_cybe_kernel_checks_pass_and_share_one_kernel(monkeypatch, n):
    """Beyond n=2 the kernel is still a subalgebra holding the expected
    generators; the two kernel checks share one kernel per suite run."""
    import osptwist.cli as cli

    real = cli.rm.cobracket_kernel
    calls = []

    def counting(algebra, r):
        calls.append(algebra.n)
        return real(algebra, r)

    monkeypatch.setattr(cli.rm, "cobracket_kernel", counting)
    status = {
        c["anchor"]: c["status"]
        for c in run_suite("cybe", n=n, degree=6).to_dict()["checks"]
    }
    assert status["cybe.cobracket-kernel-closed"] == "pass"
    assert status["cybe.cobracket-kernel-contains"] == "pass"
    assert calls == [n]


def test_rtt_check_reads_the_l_operator(monkeypatch):
    """quantum.rtt takes its L legs from LOperator.to_matrix, so one wrong
    sign there fails it; with L read off the rep form of R it would only
    repeat quantum.qybe.rep, which still passes."""
    import osptwist.cli as cli

    real = cli.qt.LOperator.to_matrix

    def one_sign_flipped(self):
        m = real(self)
        key = min(k for k in m.entries if k[0] != k[1])
        entries = dict(m.entries)
        entries[key] = -entries[key]
        return GradedMatrix(m.pv, entries)

    monkeypatch.setattr(cli.qt.LOperator, "to_matrix", one_sign_flipped)
    status = {
        c["anchor"]: c["status"]
        for c in run_suite("quantum", n=2, degree=2).to_dict()["checks"]
    }
    assert status["quantum.rtt"] == "fail"
    assert status["quantum.qybe.rep"] == "pass"


def corrupted_chain(chain):
    """``chain`` with the coefficient of the last term (in grade, then key
    order) of its last factor doubled."""
    *outer, last = chain.factors
    el = last.element
    key = max(el.terms, key=lambda k: (sum(map(len, k)), k))
    bump = UETensor(el.algebra, {key: el.terms[key]}, 2, el.g2cap)
    return Twist([*outer, TwistFactor(el + bump)], chain.factorization)


def test_corrupted_twist_factor_fails_the_full_chain_cocycle(monkeypatch):
    """Negative control: doubling one top-grade coefficient of one factor
    of F leaves a nonzero cocycle residual and fails
    twist.cocycle.full-chain."""
    import osptwist.cli as cli

    real = cli.tws.full_chain
    bad = corrupted_chain(real(cli.build_osp(2), 3))
    assert not cli.tws.cocycle_residual(bad).is_zero
    monkeypatch.setattr(
        cli.tws,
        "full_chain",
        lambda alg, degree=6: corrupted_chain(real(alg, degree)),
    )
    status = {
        c["anchor"]: c["status"]
        for c in run_suite("twist", n=2, degree=3).to_dict()["checks"]
    }
    assert status["twist.cocycle.full-chain"] == "fail"
    assert status["twist.cocycle.jordanian"] == "pass"


def test_corrupted_R_coefficient_fails_intertwining(monkeypatch):
    """Negative control: one doubled coefficient of R (its H (x) X+ term,
    from the classical r-matrix) makes quantum.intertwining fail."""
    import osptwist.cli as cli

    real = cli.qt.universal_R

    def corrupted(twist, eta=None):
        r = real(twist, eta=eta)
        alg, el = r.element.algebra, r.element
        h, x = alg.generator_index("H"), alg.generator_index("X+")
        key = ((h,), (x,))
        assert el.coefficient(key)
        bump = UETensor(alg, {key: el.coefficient(key)}, 2, el.g2cap)
        return cli.qt.RMatrix(el + bump, source=r.source)

    monkeypatch.setattr(cli.qt, "universal_R", corrupted)
    r = corrupted(cli.tws.full_chain(cli.build_osp(2), 3))
    x = cli.tws.workshop(r.element.algebra, 3).gen("X+")
    assert not cli.qt.intertwining_residual(r, x).is_zero
    status = {
        c["anchor"]: c["status"]
        for c in run_suite("quantum", n=2, degree=3).to_dict()["checks"]
    }
    assert status["quantum.intertwining"] == "fail"


def doubled_largest_term(r):
    """The classical tensor ``r`` with the coefficient of its largest key
    doubled."""
    key = max(r.terms)
    return r + LieTensor(r.algebra, 2, {key: r.terms[key]})


def doubled_h_x_plus(r):
    """The R-matrix ``r`` with its H (x) X+ coefficient doubled."""
    el = r.element
    alg = el.algebra
    key = ((alg.generator_index("H"),), (alg.generator_index("X+"),))
    bump = UETensor(alg, {key: el.coefficient(key)}, 2, el.g2cap)
    return RMatrix(el + bump, source=r.source)


@pytest.mark.parametrize(
    "anchor, corrupt",
    [
        ("cybe.full-borel", doubled_largest_term),
        ("twist.cocycle.full-chain", corrupted_chain),
        ("quantum.intertwining", lambda rx: (doubled_h_x_plus(rx[0]), rx[1])),
    ],
)
def test_a_corrupted_build_fails_only_its_anchor(monkeypatch, anchor, corrupt):
    """Negative control through the table: one anchor certifies a
    corrupted copy of the object its build returns, and no library
    function is patched.  That anchor fails; every other anchor of its
    suite, reading the same shared objects, still passes."""
    import osptwist.cli as cli

    def corrupted(record):
        name, title, certified, build, certify = record
        if name == anchor:
            return name, title, certified, lambda run: corrupt(build(run)), certify
        return record

    monkeypatch.setattr(cli, "_ANCHORS", tuple(map(corrupted, cli._ANCHORS)))
    suite = anchor.split(".")[0]
    checks = run_suite(suite, n=2, degree=3).checks
    assert len(checks) > 1
    assert [c["anchor"] for c in checks if c["status"] != "pass"] == [anchor]


# sha256 of the printed output.  A change that alters the output on purpose
# (a new check, a renamed anchor) updates the digest and says why.
GOLDEN_DUMPS = {
    (1, "text"): "4b78eb5d64eb333549491e9e6bbab64510e23a6d088b262c3644cbc6a53f76c9",
    (1, "json"): "40a22fc85e90d3b9e2213304babf24560e026bc41b62ec85b97f83a527ddb452",
    (2, "text"): "019aa2e31da5e79e380b2220cd46eb798fdcb98573222c8507053f13647b01d5",
    (2, "json"): "15b06ab07298ed5f0a6e341fbf9d32a3e3c95689246577b11179e64a379f87f7",
    (3, "text"): "0581c35be9c5c889924412562a25108563f10785857b05a574fdffd02dde1896",
    (3, "json"): "d9438e5970ebcee72678f9de38b1db955e63af2e5f1f8195883714139a5e8b1c",
}
# sha256 of ``--dump algebra`` and ``--dump rep`` (names, order, parities,
# grades, roots and every basis matrix), taken before the basis was derived
# from the form; the derivation must reproduce them byte for byte.
GOLDEN_BASIS_DUMPS = {
    ("algebra", 1, "text"): "595805c64824c99c5c374698e6a5998194e1b3a23c8673786b43ff258642ab6f",
    ("algebra", 1, "json"): "5d14243465ceae18dea34398f4c30284d5c2250f81e71d806abee81ea960f674",
    ("algebra", 2, "text"): "56f15235d78c1e7eb3cdeff581c43914756c9d4a467baad288debd8814226318",
    ("algebra", 2, "json"): "12b9510745d7fc91da6e7871dd3196787fc468d41e4b52e12423978b11deef9e",
    ("algebra", 3, "text"): "fd3f7a32a1b006ecf9e965ac1b6540a9bca7a2637ad023e0e092fc9fc660bc3d",
    ("algebra", 3, "json"): "bb2657277971ea99d7de545105167dbee2dca685bd35dab9f0801620220a721c",
    ("algebra", 4, "text"): "bd040d6c6d91778241d7246e92a3ac1294aeb2434fc470786234f2ce861ead9c",
    ("algebra", 4, "json"): "19bb513a8366de604ccdf78c53c252c2aa4a8fd83ff05d8b6d71e954a417fc78",
    ("rep", 1, "text"): "ba8581364024625e14e777c5b2b674292d16242decc3ada53e354a5ae1f12ad9",
    ("rep", 1, "json"): "d3378659ae6a93c85fadf89e115a8d4e9a8e1481fc89d7b35bfd0b5ab6e11395",
    ("rep", 2, "text"): "26f2c2c2cf5b4bc72d3050b4e742158b4eb7442cf48945196639f274e2768f88",
    ("rep", 2, "json"): "6c566b1c7487984cdaead1956b36c752a1360eaedadf7cfbb649dcb4ec8af50f",
    ("rep", 3, "text"): "ff779c6c885e8616e5164d994d2884041edb93db5d75ee669ad3da7715b0f914",
    ("rep", 3, "json"): "c8a04b74f72a79c26e11638f1346f8a4cfd73d99e2f209edfe750f1bc800fed5",
    ("rep", 4, "text"): "c22e9bdb943662ef4d2edde39a276c691d52bbe149bf50b418e74a7f05d81b44",
    ("rep", 4, "json"): "829a64e761c8e80c918af0cdbfc70c060bdc80099e78de125ca26d80984735e7",
}
GOLDEN_ALL_N2_D3 = "65d3a9600ee85e8b9653c689a5259a06490b5c4744b55b4e1bf09c5be36fa7ae"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, fmt", sorted(GOLDEN_DUMPS))
def test_rmatrix_dump_is_byte_identical(capsys, n, fmt):
    assert main(["--dump", "rmatrix", "--n", str(n), "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == GOLDEN_DUMPS[n, fmt]


@pytest.mark.parametrize("kind, n, fmt", sorted(GOLDEN_BASIS_DUMPS))
def test_basis_dump_is_byte_identical(capsys, kind, n, fmt):
    assert main(["--dump", kind, "--n", str(n), "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == GOLDEN_BASIS_DUMPS[kind, n, fmt]


def test_json_report_is_byte_identical_apart_from_timing(capsys):
    """``all --n 2 --degree 3 --format json`` with every ``ms`` zeroed."""
    assert main(["all", "--n", "2", "--degree", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        check["ms"] = 0
    assert sha256(json.dumps(report, indent=2)) == GOLDEN_ALL_N2_D3


# ``all --n 1/3 --degree 2 --format json`` with every ``ms`` zeroed.  The
# twist and quantum checks need generator aliases that exist only at n = 2,
# so 16 and 18 of them fail (MissingAlias) and the run exits 1.
GOLDEN_ALL_D2 = {
    1: ("cb6ac432a64591fa6e2e13a228e6648eb288fb3eb31a84f2c6c1b99057d16a49", 16),
    3: ("b4a1d63c2157a0ccf6bdcaf723c14e2e3f571fe5bd3db8dd141aac2814c60ea5", 18),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_ALL_D2))
def test_json_report_at_n_other_than_2_is_byte_identical(capsys, n):
    digest, failures = GOLDEN_ALL_D2[n]
    assert main(["all", "--n", str(n), "--degree", "2", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        check["ms"] = 0
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert {c["anchor"].split(".")[0] for c in failed} == {"twist", "quantum"}
    assert len(failed) == failures
    assert sha256(json.dumps(report, indent=2)) == digest
