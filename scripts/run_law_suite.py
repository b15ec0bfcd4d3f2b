"""Run the full law suite and emit its report, one JSON line per law.

Exit status is 0 when every law passes (the star-identity counterexample
is expected to fail and does not count against the suite), 1 otherwise.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qta.axioms import (  # noqa: E402
    LAW_GROUPS,
    CheckConfig,
    report_line,
    run_checks,
    serialize_reports,
    suite_passed,
)


def main(argv=None):
    defaults = CheckConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--instances", type=int, default=defaults.instances)
    parser.add_argument("--max-dim", type=int, default=defaults.max_dim)
    parser.add_argument("--tol", type=float, default=defaults.tolerance)
    parser.add_argument("--laws", nargs="+", choices=LAW_GROUPS,
                        default=list(LAW_GROUPS))
    parser.add_argument("--out", help="also write the JSONL report here")
    args = parser.parse_args(argv)

    cfg = CheckConfig(seed=args.seed, instances=args.instances,
                      max_dim=args.max_dim, tolerance=args.tol,
                      law_set=tuple(args.laws))
    reports = run_checks(cfg)
    for report in reports:
        print(report_line(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize_reports(reports))
        print(f"wrote {len(reports)} reports to {args.out}", file=sys.stderr)
    return 0 if suite_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
