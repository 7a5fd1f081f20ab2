#!/usr/bin/env python3
"""Record the exit codes and report digests the benchmark checks against.

Run from the repository root at the commit whose behaviour is the
reference ("same behaviour" means byte-identical ``--no-timestamp`` reports):

    python3 perfbench/record.py

It records, for the default seed, the first ``MESH_OPS`` ``nodal_mesh`` ops,
the first ``UC_OPS`` ``uc_horizon`` ops and every ``cli_bundled`` op.  An op
whose output fails the benchmark's own invariant checks is not recorded:
the script stops instead.  It also reports the share of recorded
``nodal_mesh`` instances in which at least one line binds.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import sys

import run
import workloads

MESH_OPS = 500
UC_OPS = 300


def binds(out) -> bool:
    name = next(n for n in out.files if n.endswith("_flows.csv"))
    rows = csv.DictReader(io.StringIO(out.files[name].decode()))
    return any(r["kind"] == "line" and abs(float(r["flow_mw"])) >= float(r["limit_mw"]) - 0.01
               for r in rows)


def main() -> int:
    cli = run.import_cli()
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    out_dir = work / "out"
    codes, digests, binding = {}, {}, 0
    try:
        plans = [("cli_bundled", len(workloads.bundled_ops(run.DEFAULT_SEED, work / "in", run.SCENARIOS))),
                 ("nodal_mesh", MESH_OPS), ("uc_horizon", UC_OPS)]
        for name, count in plans:
            stream = workloads.WORKLOADS[name](run.DEFAULT_SEED, work / "in", run.SCENARIOS)
            for _ in range(count):
                op = next(stream)
                _, out = run.execute(cli, op, out_dir)
                errors = [f"exception: {out.error}"] if out.error else op.check(out)
                if op.expected_rc is not None and out.rc != op.expected_rc:
                    errors.append(f"exit code {out.rc}, expected {op.expected_rc}")
                if errors:
                    sys.exit(f"not recording {op.key}: {'; '.join(errors)}")
                if op.expected_rc is None:
                    codes[op.key] = out.rc
                digests[op.key] = run.digest(out)
                if name == "nodal_mesh":
                    binding += binds(out)
                for p in op.inputs:
                    p.unlink()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps({
        "nodal_mesh_binding_share": binding / MESH_OPS,
        "exit_codes": codes,
        "digests": digests,
    }, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(codes)} exit codes and {len(digests)} digests to {run.EXPECTED}")
    print(f"nodal_mesh instances with a binding line: {binding}/{MESH_OPS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
