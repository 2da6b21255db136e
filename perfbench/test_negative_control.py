"""Negative controls for the benchmark's correctness gate.

    python -m pytest perfbench -q

A wrong fingerprint, a corrupted certificate input, a failing or missing
CLI check, or a benchmark process that crashes or times out must each make
the certificate fail ratio nonzero.  The quantum
battery runs at degree 2 here, where it takes about a second.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from fractions import Fraction  # noqa: E402

from osptwist import algebra, quantum, twist  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

DEGREE = 2


def fail_ratio(certs):
    attempted, failed = run.tally([{"certs": certs, "expected_certs": 0}])
    return failed / attempted


def true_fingerprints():
    f = twist.full_chain(algebra.build_osp(2), DEGREE)
    return {"F": len(f.element.terms), "R": len(quantum.universal_R(f).element.terms)}


def test_quantum_battery_passes_with_true_fingerprints():
    certs, sizes = workloads.quantum_d6(0, DEGREE, true_fingerprints())
    assert len(certs) == workloads.EXPECTED_CERTS["quantum-d6"]
    assert len(sizes["frt_entries"]) == 2
    assert fail_ratio(certs) == 0


def test_wrong_fingerprint_is_a_failure():
    expected = true_fingerprints()
    expected["F"] += 1
    certs, _ = workloads.quantum_d6(0, DEGREE, expected)
    assert [name for name, ok in certs if not ok] == ["fingerprint.F.terms"]
    assert fail_ratio(certs) > 0


def test_corrupted_r_fails_its_certificates(monkeypatch):
    real = quantum.universal_R

    def perturbed(f, eta=None):
        r = real(f, eta)
        terms = dict(r.element.terms)
        key = max(terms, key=lambda k: (sum(map(len, k)), k))
        terms[key] += Fraction(1, 7)
        return quantum.RMatrix(
            type(r.element)(r.element.algebra, terms, 2, r.element.g2cap), source=f
        )

    monkeypatch.setattr(quantum, "universal_R", perturbed)
    certs, _ = workloads.quantum_d6(0, DEGREE, true_fingerprints())
    failed = {name for name, ok in certs if not ok}
    assert "quantum.triangularity" in failed
    assert fail_ratio(certs) > 0


def test_failing_or_missing_cli_check_is_a_failure():
    report = {
        "checks": [{"anchor": a, "status": "pass"} for a in workloads.BATTERY_ANCHORS]
    }
    assert fail_ratio(workloads.score_report(report, 0)) == 0
    report["checks"][3]["status"] = "fail"
    del report["checks"][7]
    certs = workloads.score_report(report, 1)
    assert len(certs) == len(workloads.BATTERY_ANCHORS)
    assert sum(not ok for _, ok in certs) == 2


def test_nonzero_exit_with_passing_checks_is_a_failure():
    report = {
        "checks": [{"anchor": a, "status": "pass"} for a in workloads.BATTERY_ANCHORS]
    }
    assert fail_ratio(workloads.score_report(report, 1)) > 0


def test_crashed_process_is_charged_its_whole_battery():
    assert run.tally([{"expected_certs": 9, "error": "timed out"}]) == (9, 9)


def fake_child(directory, body):
    """A BENCH directory whose child.py is ``body``, for main() to start."""
    (directory / "child.py").write_text(body)
    return directory


def last_line_result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_crashed_only_process_still_prints_a_failing_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "BENCH", fake_child(tmp_path, "raise SystemExit(3)\n"))
    code = run.main(["--workload", "quantum-d6", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    result = last_line_result(capsys)
    assert code == 1
    assert result["correct"] is False
    expected = workloads.EXPECTED_CERTS["quantum-d6"]
    assert result["attempted"] == result["failed"] == expected
    assert result["metrics"]["cert_pass_ratio"]["value"] == 0
    assert result["metrics"]["wall_s"]["value"] is None


def test_timed_out_traced_process_still_prints_a_failing_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "BENCH", fake_child(tmp_path, "import time\ntime.sleep(60)\n"))
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)  # each process is killed after 1 s
    code = run.main(["--workload", "verify-d5", "--seed", "1", "--seconds", "1",
                     "--trace", "1"])
    result = last_line_result(capsys)
    assert code == 1
    assert result["correct"] is False
    expected = workloads.EXPECTED_CERTS["verify-d5"]
    assert result["attempted"] == result["failed"] == 2 * expected
    assert all(m["value"] is None for m in result["metrics"].values())


def test_caching_property_is_counted_once_per_computation():
    script = (
        "import osptwist, tracer\n"
        "t = tracer.Tracer('probe')\n"
        "t.install()\n"
        "from osptwist import algebra, quantum, twist\n"
        "f = twist.full_chain(algebra.build_osp(2), 2)\n"
        "for _ in range(3):\n"
        "    f.inverse\n"
        "quantum.universal_R(f)\n"
        "print(t.stats['twist.inverse'].calls)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1"]


def test_yardstick_counts_each_stretch_at_the_mean_speed_of_its_probes():
    ref = yardstick.REF_PROBE_S
    y = yardstick.Yardstick()
    # probes at t = 10, 11, 12: one at reference speed, two at half of it
    y.probes = [(10.0, ref, 0.0), (11.0, 2 * ref, 0.0), (12.0, 2 * ref, 0.5)]
    assert y.ref_seconds(10.0, 12.0) == 0.75 + 0.5
    assert y.ref_seconds(9.0, 10.5) == 1.0 + 0.375  # before the first probe at its speed
    assert y.first_scale() == 1.0
    assert y.probe_seconds() == 0.5
