"""Tests for the binary-v2 record codec and the JSON escrow encoding.

Covers the wire format in isolation (round-trips, partial decode,
corruption handling, non-v2 rows rejected), the DBFS format descriptor
(field order, append-only evolution, escrow plaintext), and crash
recovery over v2-encoded volumes.
"""

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.core.views import View
from repro.storage.cache import CacheConfig
from repro.storage.codec import (
    ENCODING_V2,
    RecordCodec,
    codec_for_format,
    decode_record_v1,
    encode_record_v1,
    is_v2_payload,
)
from repro.storage.crashsim import CrashSim
from repro.storage.dbfs import DatabaseFS
from repro.storage.query import DataQuery, StoreRequest

DED = AccessCredential(holder="codec-ded", is_ded=True)

FIELDS = ["amount", "blob", "city", "name", "year"]


@pytest.fixture
def codec():
    return RecordCodec(FIELDS)


SAMPLES = [
    {"name": "Ada", "year": 1815},
    {"name": "véronique-Ω-💡", "city": "Saint-Étienne"},
    {"blob": b"\x00\xffraw\xb2bytes", "year": 0},
    {"amount": 3.25, "year": -44, "name": ""},
    {"name": None, "year": True},
    {"year": (1 << 70), "amount": -2.5},          # out-of-range int -> JSON
    {"blob": b"", "city": "x" * 5000},
    {"name": {"nested": [1, "two", None]}, "blob": b"\x01"},
    {"name": [{"deep": b"nested-bytes"}]},         # bytes inside a container
    {},
]


class TestV2RoundTrip:
    @pytest.mark.parametrize("record", SAMPLES)
    def test_round_trip(self, codec, record):
        raw = codec.encode(dict(record))
        assert is_v2_payload(raw)
        assert codec.decode(raw) == record

    def test_types_survive_exactly(self, codec):
        raw = codec.encode(
            {"year": 1, "amount": 1.0, "name": "1", "blob": b"1"}
        )
        decoded = codec.decode(raw)
        assert type(decoded["year"]) is int
        assert type(decoded["amount"]) is float
        assert type(decoded["name"]) is str
        assert type(decoded["blob"]) is bytes

    def test_bool_not_collapsed_to_int(self, codec):
        decoded = codec.decode(codec.encode({"year": True, "amount": False}))
        assert decoded["year"] is True
        assert decoded["amount"] is False

    def test_bytes_stored_raw_not_base64(self, codec):
        payload = b"\xde\xad\xbe\xef" * 8
        raw = codec.encode({"blob": payload})
        assert payload in raw

    def test_unknown_field_rejected(self, codec):
        with pytest.raises(errors.DBFSError):
            codec.encode({"ghost": 1})

    def test_duplicate_field_order_rejected(self):
        with pytest.raises(errors.DBFSError):
            RecordCodec(["a", "b", "a"])


class TestPartialDecode:
    def test_decodes_only_wanted_fields(self, codec):
        raw = codec.encode({"name": "Ada", "year": 1815, "city": "London"})
        assert codec.decode_fields(raw, ["year"]) == {"year": 1815}
        assert codec.decode_fields(raw, ["city", "name"]) == {
            "city": "London", "name": "Ada",
        }

    def test_absent_fields_skipped(self, codec):
        raw = codec.encode({"name": "Ada"})
        assert codec.decode_fields(raw, ["year", "name"]) == {"name": "Ada"}

    def test_unknown_fields_ignored(self, codec):
        raw = codec.encode({"name": "Ada"})
        assert codec.decode_fields(raw, ["ghost"]) == {}


class TestSchemaEvolutionRows:
    def test_short_row_decodes_against_longer_order(self):
        old = RecordCodec(["name", "year"])
        raw = old.encode({"name": "Ada", "year": 1815})
        new = RecordCodec(["name", "year", "phone"])
        assert new.decode(raw) == {"name": "Ada", "year": 1815}
        assert new.decode_fields(raw, ["phone", "year"]) == {"year": 1815}

    def test_row_with_more_slots_than_descriptor_rejected(self):
        wide = RecordCodec(["a", "b", "c"])
        raw = wide.encode({"a": 1})
        narrow = RecordCodec(["a", "b"])
        with pytest.raises(errors.DBFSError):
            narrow.decode(raw)


class TestCorruption:
    def test_truncated_header(self, codec):
        raw = codec.encode({"name": "Ada"})
        with pytest.raises(errors.DBFSError):
            codec.decode(raw[:3])

    def test_truncated_offset_table(self, codec):
        raw = codec.encode({"name": "Ada"})
        with pytest.raises(errors.DBFSError):
            codec.decode(raw[:6])

    def test_truncated_value(self, codec):
        raw = codec.encode({"name": "Ada", "year": 1815})
        with pytest.raises(errors.DBFSError):
            codec.decode(raw[:-5])

    def test_unknown_tag(self, codec):
        raw = bytearray(codec.encode({"name": "Ada"}))
        # The first value byte is the tag of the only present field.
        raw[4 + 4 * len(FIELDS)] = 0x7F
        with pytest.raises(errors.DBFSError):
            codec.decode(bytes(raw))

    def test_non_v2_row(self, codec):
        raw = encode_record_v1({"name": "Ada", "year": 1815})
        with pytest.raises(errors.DBFSError):
            codec.decode(raw)
        with pytest.raises(errors.DBFSError):
            codec.decode_fields(raw, ["year"])
        # Through DBFS, record cache off so both fetch paths (projected
        # and full) decode the row on the device.
        fs = make_fs(cache_config=CacheConfig(record_cache_records=0))
        ref = store_user(fs, "alice")
        fs.inodes.rewrite_scrubbed(fs._record_index[ref.uid], raw)
        with pytest.raises(errors.DBFSError):
            fetch(fs, ref)
        with pytest.raises(errors.DBFSError):
            fs.fetch_records(DataQuery(uids=(ref.uid,)), DED)


class TestEncodingDetection:
    def test_json_rows_never_look_like_v2(self):
        raw = encode_record_v1({"any": "row"})
        assert raw[0] == ord("{")
        assert not is_v2_payload(raw)

    def test_codec_for_format(self):
        with pytest.raises(errors.DBFSError):
            codec_for_format({"encoding": "json+base64-bytes"})
        compiled = codec_for_format(
            {"encoding": ENCODING_V2, "field_order": ["a", "b"]}
        )
        assert compiled.field_order == ["a", "b"]
        with pytest.raises(errors.DBFSError):
            codec_for_format({"encoding": ENCODING_V2})

    def test_v1_round_trip_preserves_bytes(self):
        record = {"blob": b"\x00\x01", "name": "Ada"}
        assert decode_record_v1(encode_record_v1(dict(record))) == record


# ---------------------------------------------------------------------------
# DBFS-level encoding negotiation
# ---------------------------------------------------------------------------


def user_type():
    return PDType(
        name="user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("ssn", "string", sensitive=True),
            FieldDef("year", "int"),
        ),
        views={"v_ano": View("v_ano", frozenset({"year"}))},
        default_consent={"stats": "v_ano"},
        collection={"web_form": "form.html"},
        ttl_seconds=1000.0,
    )


def evolved_user_type():
    return PDType(
        name="user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("ssn", "string", sensitive=True),
            FieldDef("year", "int"),
            FieldDef("phone", "string", required=False),
        ),
        views={"v_ano": View("v_ano", frozenset({"year"}))},
        default_consent={"stats": "v_ano"},
        collection={"web_form": "form.html"},
        ttl_seconds=1000.0,
    )


def make_fs(**kwargs):
    authority = Authority(bits=512, seed=31)
    fs = DatabaseFS(
        operator_key=authority.issue_operator_key("codec-op"), **kwargs
    )
    fs.create_type(user_type(), DED)
    return fs


def store_user(fs, subject, name="Ada", year=1815, pd_type=None):
    membrane = membrane_for_type(pd_type or user_type(), subject,
                                 created_at=0.0)
    return fs.store(
        StoreRequest(
            pd_type="user",
            record={"name": name, "ssn": f"ssn-{subject}", "year": year},
            membrane_json=membrane.to_json(),
        ),
        DED,
    )


def fetch(fs, ref, fields=("name", "ssn", "year", "phone")):
    records = fs.fetch_records(
        DataQuery(uids=(ref.uid,), fields={ref.uid: frozenset(fields)}), DED
    )
    return records[ref.uid]


def raw_public_payload(fs, ref):
    return fs.inodes.read_payload(fs._record_index[ref.uid])


class TestDBFSNegotiation:
    def test_v2_descriptor_declares_encoding_and_order(self):
        fs = make_fs()
        spec = fs._format_of("user")
        assert spec["encoding"] == ENCODING_V2
        assert spec["field_order"] == ["name", "ssn", "year"]

    def test_round_trip(self):
        fs = make_fs()
        ref = store_user(fs, "alice", name="Ada-Ω", year=1815)
        assert fetch(fs, ref) == {
            "name": "Ada-Ω", "ssn": "ssn-alice", "year": 1815,
        }

    def test_v2_rows_are_binary_on_disk(self):
        fs = make_fs()
        ref = store_user(fs, "alice")
        assert is_v2_payload(raw_public_payload(fs, ref))

    def test_escrow_blob_is_always_v1_json(self):
        # The authority must decode escrow without operator descriptors.
        fs = make_fs()
        ref = store_user(fs, "alice")
        from repro.storage.query import DeleteRequest

        fs.delete(DeleteRequest(ref.uid, mode="escrow"), DED)
        blob = fs.escrow_blob(ref.uid)
        assert blob is not None
        assert not is_v2_payload(blob.ciphertext)

    def test_remount_preserves_both_codecs(self):
        fs = make_fs()
        ref = store_user(fs, "alice", year=1900)
        fs.remount()
        assert fetch(fs, ref)["year"] == 1900

    def test_remount_from_device_parses_both(self):
        authority = Authority(bits=512, seed=32)
        key = authority.issue_operator_key("codec-op")
        fs = DatabaseFS(operator_key=key)
        fs.create_type(user_type(), DED)
        ref = store_user(fs, "alice", year=1902)
        recovered = DatabaseFS.remount_from_device(
            fs.device, fs.inodes, operator_key=key,
        )
        assert fetch(recovered, ref)["year"] == 1902


class TestMixedEncodingTables:
    def test_v2_evolution_appends_order_at_tail(self):
        # Ordinals of already-written v2 rows must never move.
        fs = make_fs()
        ref = store_user(fs, "alice", year=1815)
        fs.evolve_type(evolved_user_type(), DED)
        spec = fs._format_of("user")
        assert spec["field_order"] == ["name", "ssn", "year", "phone"]
        assert fetch(fs, ref)["year"] == 1815

    def test_sensitive_fields_stay_separate_under_v2(self):
        fs = make_fs()
        ref = store_user(fs, "alice")
        raw = raw_public_payload(fs, ref)
        assert b"ssn-alice" not in raw


# ---------------------------------------------------------------------------
# Crash recovery over v2 volumes
# ---------------------------------------------------------------------------


class TestCrashRecoveryByCodec:
    """Power cut mid-store must not corrupt v2 rows.

    The full every-write-index sweeps in test_crash_consistency.py
    cover every write; here a strided sweep and a few sharded spot
    checks catch a wire-format regression by name.
    """

    def test_strided_sweep(self):
        report = CrashSim(shard_count=1).sweep(stride=7)
        assert report.passed, report.failing_trials()

    def test_v2_sharded_spot_checks(self):
        sim = CrashSim(shard_count=2)
        format_writes, total = sim.measure()
        midpoint = format_writes + (total - format_writes) // 2
        for cut_after in (format_writes, midpoint, total - 1):
            trial = sim.run_trial(cut_after)
            assert trial.ok, trial.failures
