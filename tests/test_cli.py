"""Command-line verification front end: suite reports, dumps, exit codes."""

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
