"""TraceRecorder, frame identity, and the record schema."""

import pytest

from repro.mac.frames import DataFrame
from repro.net.packets import BroadcastPacket, HelloPacket
from repro.trace import (
    DECISION_VERDICTS,
    SCHEMA,
    TraceRecorder,
    TraceSchemaError,
    frame_ident,
    record_to_dict,
    validate_record,
)


def bcast_packet(src=3, seq=5, hops=2):
    return BroadcastPacket(
        source_id=src, seq=seq, origin_time=1.0, tx_id=src,
        tx_position=None, hops=hops,
    )


# ------------------------------------------------------------ frame_ident


def test_frame_ident_broadcast_payload():
    assert frame_ident(bcast_packet()) == ("bcast", 3, 5, 2)


def test_frame_ident_unwraps_mac_envelope():
    frame = DataFrame(
        src=9, dst=None, payload=bcast_packet(src=1, seq=2, hops=0),
        size_bytes=280,
    )
    assert frame_ident(frame) == ("bcast", 1, 2, 0)


def test_frame_ident_hello():
    assert frame_ident(HelloPacket(sender_id=4)) == ("hello", 4, -1, 0)


def test_frame_ident_unknown_payload_falls_back_to_class_name():
    class AckFrame:
        pass

    assert frame_ident(AckFrame()) == ("ackframe", -1, -1, 0)


# ------------------------------------------------------------- recorder


def test_recorder_starts_empty_and_counts():
    rec = TraceRecorder()
    assert len(rec) == 0
    rec.emit(0.5, "originate", src=1, seq=0, host=1)
    rec.emit(0.7, "receive", src=1, seq=0, host=2, sender=1)
    rec.emit(0.9, "receive", src=1, seq=0, host=3, sender=1)
    assert len(rec) == 3
    assert rec.count("receive") == 2
    assert rec.count("fault") == 0
    assert rec.categories() == {"originate": 1, "receive": 2}
    assert [r[1] for r in rec.filter("receive")] == ["receive", "receive"]
    rec.clear()
    assert len(rec) == 0


def test_emit_orders_fields_per_schema():
    rec = TraceRecorder()
    # Keyword order must not matter; the tuple is in schema order.
    rec.emit(1.0, "receive", sender=9, host=2, seq=0, src=1)
    assert rec.records[0] == (1.0, "receive", 1, 0, 2, 9)


def test_emit_rejects_unknown_category_and_fields():
    rec = TraceRecorder()
    with pytest.raises(ValueError, match="unknown trace category"):
        rec.emit(0.0, "warp-drive", host=1)
    with pytest.raises(ValueError, match="unknown fields"):
        rec.emit(0.0, "originate", src=1, seq=0, host=1, bogus=2)


def test_sample_dt_validation():
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            TraceRecorder(sample_dt=bad)
    assert TraceRecorder(sample_dt=0).sample_dt is None  # 0 disables
    assert TraceRecorder(sample_dt=0.5).sample_dt == 0.5
    assert TraceRecorder().sample_dt is None


def test_as_dicts_expands_and_filters():
    rec = TraceRecorder()
    rec.emit(0.5, "originate", src=1, seq=0, host=1)
    rec.emit(0.7, "dup", src=1, seq=0, host=2, sender=1)
    dicts = list(rec.as_dicts())
    assert dicts[0] == {"t": 0.5, "ev": "originate", "src": 1, "seq": 0,
                        "host": 1}
    assert [d["ev"] for d in rec.as_dicts("dup")] == ["dup"]


# --------------------------------------------------------------- schema


def test_record_to_dict_rejects_malformed_tuples():
    with pytest.raises(TraceSchemaError, match="unknown trace category"):
        record_to_dict((0.0, "nope", 1))
    with pytest.raises(TraceSchemaError, match="expected 3 fields"):
        record_to_dict((0.0, "originate", 1))  # missing seq + host


def test_every_schema_category_has_unique_fields():
    for category, fields in SCHEMA.items():
        assert len(set(fields)) == len(fields), category
        assert "t" not in fields and "ev" not in fields, category


def test_validate_record_accepts_wellformed():
    validate_record({"t": 1.0, "ev": "fault", "kind": "crash", "host": 3})
    validate_record({"ev": "trace-meta", "schema_version": 1, "seed": 7})


@pytest.mark.parametrize("bad,why", [
    ({"ev": "nope", "t": 0.0}, "unknown trace category"),
    ({"ev": "fault", "t": -1.0, "kind": "crash", "host": 3}, "non-negative"),
    ({"ev": "fault", "t": True, "kind": "crash", "host": 3}, "non-negative"),
    ({"ev": "fault", "kind": "crash", "host": 3}, "non-negative"),
    ({"ev": "fault", "t": 0.0, "kind": "crash"}, "missing"),
    ({"ev": "fault", "t": 0.0, "kind": "crash", "host": 3, "x": 1},
     "unexpected"),
    ({"ev": "trace-meta", "schema_version": 99}, "schema_version"),
])
def test_validate_record_rejections(bad, why):
    with pytest.raises(TraceSchemaError, match=why):
        validate_record(bad)


def test_validate_record_checks_decision_verdicts():
    base = {"t": 0.0, "ev": "decision", "src": 1, "seq": 0, "host": 2,
            "scheme": "counter", "n": None, "threshold": 3, "observed": 1}
    validate_record(dict(base, verdict="defer"))
    for verdict in DECISION_VERDICTS:
        validate_record(dict(base, verdict=verdict))
    with pytest.raises(TraceSchemaError, match="unknown verdict"):
        validate_record(dict(base, verdict="maybe"))
