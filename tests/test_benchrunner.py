"""Tests for repro.benchrunner.payload_drift, the committed-payload check."""

from repro.benchrunner import payload_drift

COMMITTED = {
    "host": {"cpu_count": 2},
    "arms": {"a": {"loss": 0.25, "n": 3, "ok": True}},
    "scaling": [{"ranks": 1, "loss": 0.5}, {"ranks": 2, "loss": 0.4}],
}


def _fresh(**arms):
    return {
        "host": {"cpu_count": 64},
        "arms": {"a": dict(COMMITTED["arms"]["a"], **arms)},
        "scaling": [dict(row) for row in COMMITTED["scaling"]],
    }


def test_equal_payloads_apart_from_host_do_not_drift():
    assert payload_drift(COMMITTED, _fresh()) == []


def test_nested_and_listed_fields_are_named():
    fresh = _fresh(loss=0.25000000000000006)
    fresh["scaling"][1]["loss"] = 0.41
    assert payload_drift(COMMITTED, fresh) == [
        "arms.a.loss: 0.25 -> 0.25000000000000006",
        "scaling[1].loss: 0.4 -> 0.41",
    ]


def test_added_removed_and_retyped_fields_drift():
    fresh = _fresh(n=3.0, ok=1, extra="x")
    fresh["scaling"].pop()
    lines = payload_drift(COMMITTED, fresh)
    assert "arms.a.extra: '<absent>' -> 'x'" in lines
    assert "arms.a.n: 3 -> 3.0" in lines
    assert "arms.a.ok: True -> 1" in lines
    assert any(line.startswith("scaling: ") for line in lines)

