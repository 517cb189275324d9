#!/usr/bin/env python3
"""Write bench/reference.json: the default-seed digests of every workload's
artifacts and read-back output, which run.py then requires.

    python3 bench/make_reference.py

Run it only when a change is meant to alter artifact bytes, and say so
with the acceptance results for seeds 0 to 2, as ROADMAP.md asks. A
numpy or BLAS upgrade can also move the digests legitimately. Never
rewrite the reference to make a failing run pass.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    program = run.load_program()
    entries = {}
    for workload in run.WORKLOADS.values():
        session = run.Session(program, workload, run.DEFAULT_SEED, check_reference=False)
        run.warm_up(session)
        if session.failed:
            print("\n".join(session.problems), file=sys.stderr)
            return 1
        entries[workload.name] = {
            "config": workload.reference_config(),
            "artifacts": session.expected_artifacts,
            "reads": session.expected_reads,
        }
    body = {
        "seed": run.DEFAULT_SEED,
        "machine": run.machine(),
        "workloads": entries,
    }
    run.REFERENCE.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
