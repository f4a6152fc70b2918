"""Group references: GIOR stringification, parsing, member lookup."""

import pytest

from repro.orb.reference import (
    GroupReference,
    ObjectReference,
    parse_reference,
)
from repro.orb.transport import PortAddress


def make_ref(key, nports=0, dedup=False):
    return ObjectReference(
        object_key=key,
        repo_id="IDL:svc:1.0",
        request_port=PortAddress(1, f"req-{key}"),
        data_ports=tuple(
            PortAddress(10 + i, f"d-{key}-{i}") for i in range(nports)
        ),
        param_templates=((("op", "darray"), ("proportions", (2,))),),
        dedup=dedup,
    )


def make_group(loads=((1, 0.25),)):
    return GroupReference(
        group_name="svc",
        repo_id="IDL:svc:1.0",
        epoch=4,
        members=tuple(
            (rid, make_ref(f"svc#{rid}", nports=rid)) for rid in (0, 1, 2)
        ),
        loads=tuple(loads),
    )


class TestGiorRoundtrip:
    def test_roundtrip_preserves_everything(self):
        group = make_group()
        text = group.ior()
        assert text.startswith("GIOR:")
        back = GroupReference.from_ior(text)
        assert back == group

    def test_loads_round_to_milli_units(self):
        group = make_group(loads=((0, 1.2345),))
        back = GroupReference.from_ior(group.ior())
        assert back.load(0) == pytest.approx(1.234, abs=1e-9)

    def test_nested_member_references_survive(self):
        back = GroupReference.from_ior(make_group().ior())
        assert back.member(2).nthreads == 2
        assert back.member(2).template_spec("op", "darray") == (
            "proportions",
            (2,),
        )


    def test_dedup_survives_per_replica(self):
        group = GroupReference(
            group_name="svc",
            repo_id="IDL:svc:1.0",
            epoch=1,
            members=(
                (0, make_ref("svc#0", dedup=True)),
                (1, make_ref("svc#1")),
            ),
        )
        back = GroupReference.from_ior(group.ior())
        assert back.member(0).dedup is True
        assert back.member(1).dedup is False


class TestGiorErrors:
    def test_wrong_prefix(self):
        with pytest.raises(ValueError, match="not a stringified group"):
            GroupReference.from_ior("IOR:00")

    def test_non_hex_payload(self):
        with pytest.raises(ValueError, match="malformed GIOR"):
            GroupReference.from_ior("GIOR:zz")

    def test_truncated_payload(self):
        text = make_group().ior()
        with pytest.raises(ValueError, match="malformed GIOR"):
            GroupReference.from_ior(text[: len(text) // 2])


class TestAccessors:
    def test_replica_ids(self):
        assert make_group().replica_ids == (0, 1, 2)

    def test_member_lookup_raises_for_unknown(self):
        with pytest.raises(KeyError, match="no replica 9"):
            make_group().member(9)

    def test_load_is_none_when_unreported(self):
        group = make_group(loads=())
        assert group.load(0) is None

    def test_str_mentions_group_shape(self):
        text = str(make_group())
        assert "'svc'" in text and "3 replicas" in text


class TestParseReference:
    def test_dispatches_by_prefix(self):
        group = make_group()
        single = make_ref("solo")
        assert parse_reference(group.ior()) == group
        assert parse_reference(single.ior()) == single
