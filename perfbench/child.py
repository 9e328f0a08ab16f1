"""One audit in a fresh interpreter, as a user's ``cellgauge analyze`` runs.

    python3 child.py RESULT [WORKBOOK REPORT [--trace]]

Imports cellgauge first and stamps the monotonic clock when the import
returns, so the parent can time interpreter start plus import. With a
workbook it then calls ``cellgauge.cli.main(["analyze", WORKBOOK, "--out",
REPORT])``, optionally under the outside-in tracer, and writes a JSON result
to RESULT: exit code, audit seconds, peak RSS, the traceback of any
exception, and with ``--trace`` the spans, per-name times and counters.
"""

import time

import cellgauge

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(argv: list) -> None:
    result = {"imported": IMPORTED, "module": cellgauge.__file__}
    if len(argv) > 1:
        workbook, report = argv[1], argv[2]
        tracer = None
        if "--trace" in argv[3:]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        from cellgauge import cli

        start = time.perf_counter()
        try:
            result["exit"] = cli.main(["analyze", workbook, "--out", report])
        except Exception:  # any crash, RecursionError included, is a failed audit
            result["error"] = traceback.format_exc(limit=-8)
        result["audit_s"] = time.perf_counter() - start
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["times"] = tracer.times_ms()
            result["counters"] = tracer.counters()
            result["absent"] = tracer.absent
            result["spans"] = tracer.spans
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
