"""Command-line verification front end: suite reports, dumps, exit codes."""

import hashlib
import json

import pytest

from osptwist.cli import (
    SUITE_NAMES,
    SuiteReport,
    run_suite,
    dump_payload,
    main,
)
from osptwist.errors import UnknownSuite, InvalidOption
from osptwist.pbw import UETensor
from osptwist.repmat import GradedMatrix
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

    def sabotaged(n, degree):
        return [("demo.always-false", "deliberate failure", "exact", lambda: False)]

    monkeypatch.setitem(cli._SUITE_BUILDERS, "algebra", sabotaged)
    code = main(["algebra"])
    out = capsys.readouterr().out
    assert code == 1
    assert "fail" in out


def test_check_error_is_reported_not_raised(monkeypatch, capsys):
    """A check that raises a library error is recorded as a failure."""
    import osptwist.cli as cli
    from osptwist.errors import OspTwistError

    def exploding(n, degree):
        def boom():
            raise OspTwistError("verifier internal mismatch")

        return [("demo.boom", "raises inside", "exact", boom)]

    monkeypatch.setitem(cli._SUITE_BUILDERS, "cybe", exploding)
    rep = run_suite("cybe")
    assert not rep.overall
    assert rep.to_dict()["checks"][0]["status"] == "fail"


def test_quantum_suite_builds_the_full_chain_R_once(monkeypatch):
    """The quantum checks share one full-chain R per suite run, the
    classical-limit check included; the only other R build is the
    jordanian one."""
    import osptwist.cli as cli

    real = cli.qt.universal_R
    calls = []

    def counting(twist, eta=None):
        calls.append((twist.factorization, eta))
        return real(twist, eta=eta)

    monkeypatch.setattr(cli.qt, "universal_R", counting)
    rep = run_suite("quantum", n=2, degree=3)
    assert rep.overall
    full = [c for c in calls if len(c[0]) == 4]
    assert len(calls) == 2
    assert full == [(full[0][0], None)]
    assert [c for c in calls if c not in full] == [(("jordanian",), None)]


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
GOLDEN_ALL_N2_D3 = "65d3a9600ee85e8b9653c689a5259a06490b5c4744b55b4e1bf09c5be36fa7ae"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, fmt", sorted(GOLDEN_DUMPS))
def test_rmatrix_dump_is_byte_identical(capsys, n, fmt):
    assert main(["--dump", "rmatrix", "--n", str(n), "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == GOLDEN_DUMPS[n, fmt]


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
