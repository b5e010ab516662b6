"""Time how long a fresh interpreter takes to get ready to sample.

Usage: python3 bench/setup_probe.py D1 D2 BLOCK_CSV [BLOCK_CSV...]

Makes, in order, the public calls ``sckpd fit`` makes before its chains
start: ``import sckpd.cli``; ``harness.ingest_csv`` and
``model.DataSummary.from_observations`` for every block; then
``hyper.prior_targets_from_sample`` on the first block's scatter and
``hyper.solve_hyper``.  Prints one JSON object of phase times in seconds.
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    d1, d2, paths = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    import sckpd.cli  # noqa: F401
    from sckpd import harness, hyper, model
    t_import = perf_counter()
    ingest_s = summary_s = 0.0
    first = None
    fields = 0
    for path in paths:
        t = perf_counter()
        Y = harness.ingest_csv(path, d1, d2)
        t_read = perf_counter()
        model.DataSummary.from_observations(Y, d1, d2)
        summary_s += perf_counter() - t_read
        ingest_s += t_read - t
        fields += Y.size
        if first is None:
            first = Y
    t = perf_counter()
    targets = hyper.prior_targets_from_sample(first.T @ first / first.shape[0], d1, d2)
    hyper.solve_hyper(targets)
    t_end = perf_counter()
    json.dump({"setup_s": t_end - T_START, "import_s": t_import - t0,
               "ingest_s": ingest_s, "fields": fields, "summary_s": summary_s,
               "hyper_s": t_end - t}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
