"""The benchmark harness in perfbench/ patches library names by string
(`spans.WRAPPED`) and calls `protocol.toy_group`; this checks that each of
them still exists, so a rename that would break a traced benchmark run
fails here in seconds.  Only reads perfbench/."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    for owner, attr, span, _ in spans.WRAPPED:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({span})"
    assert callable(workloads.protocol.toy_group)
