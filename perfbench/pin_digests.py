"""Re-pin the stdout digests that census-verify checks its commands against.

    python3 perfbench/pin_digests.py

Runs every command census-verify can issue, for any seed, once with the
package in ``src/`` and writes the SHA-256 of each command's stdout to
``perfbench/expected/cli_digests.json``. The CLI's output is byte-identical
across reruns and worker counts by design, so a digest changes only when
the output format or a result changes. Re-pin only for an intended change,
and say so in the change's description.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    import eqw.cli as cli
    from click.testing import CliRunner

    runner = CliRunner()
    digests = {}
    for args in workloads.all_pinned_commands():
        result = runner.invoke(cli.main, args)
        if result.exit_code != 0:
            print(f"`eqw {' '.join(args)}` exited {result.exit_code}", file=sys.stderr)
            return 1
        digests[" ".join(args)] = hashlib.sha256(result.stdout_bytes).hexdigest()
    workloads.DIGESTS_PATH.parent.mkdir(exist_ok=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} digests in {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
