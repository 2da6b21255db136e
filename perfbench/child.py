"""One cold benchmark process: set up, run one workload, write the result.

    python perfbench/child.py WORKLOAD SEED OUT.json [--setup-only] [--trace SPANS.json]

``run.py`` starts this with ``src`` on PYTHONPATH.  Every cache of the
package is process-global, so each run pays to fill them, as a user of
``osp-verify`` does.  The result file holds CLOCK_MONOTONIC stamps, which
the parent compares with its own stamp taken just before the spawn:

* ``t_setup`` - ``import osptwist`` and ``build_osp`` for the workload's
  ranks are done;
* ``t_end``   - the last certificate is checked.

From its first line to ``t_end`` (``t_setup`` for ``--setup-only``) the
process runs the host-speed probes of ``yardstick.py`` and reports the
same stretches in reference seconds: ``ref_setup`` and ``ref_end`` count
from ``t_start``, ``start_scale`` converts the parent's stretch before
``t_start``, and ``probe_s`` is the probes' own wall time.

A workload that raises is reported with its error instead of certificates.
"""

import time

T_START = time.monotonic()

import yardstick  # noqa: E402

YARD = yardstick.Yardstick()
YARD.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None, help="write kept spans here")
    args = p.parse_args()

    import osptwist

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer, calibrate

        tracer = Tracer("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        tracer.install()
    for n in workloads.RANKS[args.workload]:
        osptwist.algebra.build_osp(n)
    result = {"t_start": T_START, "t_setup": time.monotonic()}
    if not args.setup_only:
        try:
            certs, sizes = workloads.WORKLOADS[args.workload](args.seed)
            result["certs"] = certs
            result["sizes"] = sizes
        except Exception:
            result["error"] = traceback.format_exc()
        result["t_end"] = time.monotonic()
    YARD.stop()
    result["start_scale"] = YARD.first_scale()
    result["ref_setup"] = YARD.ref_seconds(T_START, result["t_setup"])
    if "t_end" in result:
        result["ref_end"] = YARD.ref_seconds(T_START, result["t_end"])
    result["probe_s"] = YARD.probe_seconds()
    result["probes"] = len(YARD.probes)
    usage = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["cpu_raw_s"] = sum(u.ru_utime + u.ru_stime for u in usage)
    result["maxrss_kib"] = max(u.ru_maxrss for u in usage)
    if tracer is not None:
        # after t_end, so the calibration is not part of the traced wall time
        result["layers"] = tracer.metrics(calibrate())
        tracer.write_spans(args.trace)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
