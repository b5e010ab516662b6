"""Run one ``sckpd fit`` in this interpreter with spans around each layer.

Usage: python3 bench/traced_fit.py SPANS_JSON fit [fit arguments...]

The root span ``cli`` covers ``import sckpd.cli`` (span ``cli.import``) and
``sckpd.cli.main`` (span ``cli.main``); the spans listed in
``tracer.TARGETS`` nest below it.  RuntimeWarnings raised during the fit are
counted, every occurrence included.  The spans, the warning count and the
CLI's exit code are written to SPANS_JSON after the fit ends, with any
target the package no longer has.  The CLI's exit code is this script's.
"""

import json
import sys
import warnings

from tracer import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli"):
        with tracer.span("cli.import"):
            import sckpd.cli
        missing = install(tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            with tracer.span("cli.main"):
                code = sckpd.cli.main(argv)
    n_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "runtime_warnings": n_warnings,
                   "missing_targets": missing, "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
