#!/usr/bin/env python3
"""Write ``digests.json``: the digest of each golden op's exact output.

    python3 perfbench/freeze_digests.py

The golden round is round 0 of seed 0; one op per (name, backend) kind on
the exact backends.  Refreeze only on purpose: an optimisation must leave
every exact output, and therefore every digest, unchanged.
"""

import json
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import cli_workload
    from common import digest
    frozen = {}
    for workload in run.WORKLOADS:
        invoke = cli_workload.subprocess_invoker(run.SRC) if workload == "cli" else None
        frozen[workload] = {}
        for key, op in run.golden_ops(workload, invoke).items():
            out = op.run()
            op.check(out)
            frozen[workload][key] = digest(op.canon(out))
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, frozen.values()))} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
