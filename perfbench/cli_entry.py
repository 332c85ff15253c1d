"""Traced entry point for one CLI call of the ``cli-fixtures`` workload.

    python3 perfbench/cli_entry.py SPANS_OUT ARGV...

Installs the span wrappers, then calls ``stratisolve.cli.run(ARGV)`` exactly
as ``python -m stratisolve.cli ARGV`` would, so every traced call stays
cold.  Spans and counters are written to SPANS_OUT as JSON and the exit
code is the CLI's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import stratisolve.cli  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    rec.begin(0)
    try:
        rc = stratisolve.cli.run(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.end()
        Path(out).write_text(json.dumps(spans.dump(rec)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
