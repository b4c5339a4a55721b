"""Record the stdout digest of every benchmark command into digests.json.

Run from the repository root, at the commit whose output is the reference:

    python3 bench/record_digests.py

The benchmark's output_stable metric compares each command's stdout
with these digests, so re-record only when a change of output is intended.
"""

from __future__ import annotations

import hashlib
import json

import run


def main() -> None:
    cli = run.import_storlab().cli
    spec = run.load_spec()
    digests = {}
    for workload in spec["workloads"]:
        for command in run.commands_of(spec, workload):
            outcome = run.run_command(cli, command.argv)
            if outcome.error is not None:
                raise SystemExit(f"{command.line}: {outcome.error}")
            digests[command.line] = hashlib.sha256(outcome.stdout.encode("utf-8")).hexdigest()
    with open(run.BENCH / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
