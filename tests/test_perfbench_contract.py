"""Each benchmark workload in perfbench/ runs through its own code and every
call it times has the outcome the protocol requires, so an API change that
breaks the benchmark (a renamed attribute, a changed return type) fails
here in seconds rather than at benchmark time.  The defect probe's cases
must be rejected at the protocol's stage for each, a tighter gate than
perfbench's own `KNOWN_DEFECTS` table, which lists older outcomes.  Only
reads perfbench/."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def set_up(monkeypatch):
    """name -> that workload at seed 1 after its untimed setup."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    def make(name):
        wl = workloads.WORKLOADS[name](1, spans.NullRecorder())
        wl.setup()
        return wl
    return make


def _run_ops(wl, n_ops):
    """The setup calls and those of ops 0..n_ops-1 on one fresh lane."""
    lane = wl.new_lane()
    calls = list(wl.setup_calls)
    for i in range(n_ops):
        calls += wl.run(lane, i, wl.recorder)[0]
    return calls


@pytest.mark.parametrize("name", ["rss-broadcast", "audit-challenge"])
def test_create_workload_calls_ok(set_up, name):
    wl = set_up(name)
    calls = _run_ops(wl, 1)
    assert [c.kind for c in calls] == \
        ["create"] + ["verify"] * (2 * wl.n_verifiers)
    assert [(c.label, c.outcome) for c in calls if not c.ok] == []


def test_roadside_trace_cycle_ok_and_defects_rejected_at_their_stage(
        set_up):
    wl = set_up("roadside-verify")
    calls = _run_ops(wl, len(wl.trace))
    assert len(calls) == wl.n_pool + len(wl.trace)
    assert [(c.label, c.outcome) for c in calls if not c.ok] == []
    assert dict(wl.defect_probe()) == {
        "alias": "reject:proof",
        "truncated": "reject:malformed",
        "short-cert": "reject:certificate",
        "re-envelope": "reject:binding",
    }
