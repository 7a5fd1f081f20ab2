"""Replay a sample of the benchmark's recorded ops and compare their report
digests with ``perfbench/expected.json``, so that a change to the solver
that moves a printed digit fails here, not only in a benchmark run.

The sample is every tenth recorded ``nodal_mesh`` and ``uc_horizon`` op,
plus ``nodal_mesh`` ops in which the ratio test decides pivots again from a
fresh solve: the simplex takes each entering direction from its updated
basis inverse, and a decision within the drift margins of a threshold is
taken again as a fresh solve takes it.  Ops 194 and 376 are the ones whose
reports moved when an unguarded solver took the direction from the inverse
(op 376 through a phase-1 ratio-test tie within 1e-12, op 194 in the sign of
a zero price component); they now decide 11 and 12 pivots again.  Ops 82,
137, 197, 325 and 448 decide 14 to 32 pivots again each, the most among the
recorded ops.  Nothing under ``perfbench/`` is written.
"""
from pathlib import Path

PERFBENCH = Path(__file__).parent.parent / "perfbench"
MESH_OPS, UC_OPS = 500, 300  # the ops perfbench/record.py records

_SAMPLE = ([("nodal_mesh", k) for k in sorted({*range(0, MESH_OPS, 10), 82, 137, 194, 197, 325, 376, 448})]
           + [("uc_horizon", k) for k in range(0, UC_OPS, 10)])


def _argv(gen, workloads, workload, k, work):
    if workload == "nodal_mesh":
        doc = gen.mesh_doc(0, k, workloads.MESH_SIZES[k % len(workloads.MESH_SIZES)])
        return ["clear", str(gen.write_doc(doc, work / f"{doc['name']}.scn")), "--scheme", "nodal",
                "--no-timestamp"]
    doc = gen.uc_doc(0, k, *workloads.UC_SHAPES[k % len(workloads.UC_SHAPES)])
    return ["daucruc", str(gen.write_doc(doc, work / f"{doc['name']}.scn")), "--no-timestamp"]


def test_sampled_benchmark_ops_reproduce_their_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run
    import workloads

    cli, expected = run.import_cli(), run.load_expected()
    monkeypatch.setenv("GRIDCLEAR_OUT", str(tmp_path / "out"))  # run.execute sets it; restored after
    differ = []
    for workload, k in _SAMPLE:
        key = f"{workload}/seed0/{k}"
        op = workloads.Op(key, _argv(gen, workloads, workload, k, tmp_path), 0, lambda out: [], [])
        _, out = run.execute(cli, op, tmp_path / "out")
        if run.failures(op, out, expected):
            differ.append(key)
    assert differ == [], f"{len(differ)} of {len(_SAMPLE)} sampled ops differ from perfbench/expected.json"
