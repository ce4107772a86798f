"""Command-line entry point for the recognition workload.

frugaleval has no command for the less-is-more curve, so this module gives
`less_is_more_curve` one, shaped like the frugaleval commands: flags in, a
JSON report with a `result` section out.

    PYTHONPATH=src:bench python3 -m recognition_cmd --population 50 \\
        --alpha 0.8 --beta 0.6 --trials 20000 --seed 1 --out report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from frugaleval.ecology import less_is_more_curve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="recognition_cmd")
    parser.add_argument("--population", type=int, required=True)
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    rows = less_is_more_curve(args.population, args.alpha, args.beta, args.trials, args.seed)
    report = {
        "command": "less_is_more",
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "out"},
        "result": {"rows": [list(row) for row in rows]},
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
