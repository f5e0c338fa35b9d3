"""The framed socket transport: every way a network byte stream can
lie — truncation, corruption, lost sync, lost frames, mid-frame
disconnect — must surface as a *typed* error, never a hang or garbage,
and the reconnect backoff schedule must be assertable against a fake
clock (no real sleeping)."""

import pickle
import random
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.blast.scankernel import db_token
from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams, resolve_ka, search
from repro.blast.seqdb import NT, SequenceDB
from repro.exec.net import (DATA, FRAME_MAGIC, HEADER_SIZE,
                            MAX_FRAME_PAYLOAD, PING, PONG, FrameConnection,
                            FrameCRCError, FrameDecoder, FrameError,
                            FrameSequenceError, FrameTruncated,
                            NodeConnectError, backoff_delay, connect_backoff,
                            encode_frame, parse_address)
from repro.exec.nodes import PROTO_VERSION, NodeAgent, NodeClient
from repro.exec.pool import JobSpec
from repro.exec.results import decode_result_pairs
from repro.exec.shm import ShmRegistry, pack_fragment, read_pack_bytes
from repro.exec.net import pack_wire_meta

NT_LETTERS = np.array(list("ACGT"))


# ----------------------------------------------------------------------
# Frame encode/decode
# ----------------------------------------------------------------------
def test_frame_roundtrip_and_incremental_feed():
    dec = FrameDecoder()
    payloads = [b"", b"x", b"hello world" * 100]
    wire = b"".join(encode_frame(DATA, i, p) for i, p in enumerate(payloads))
    got = []
    # Byte-at-a-time delivery: frames must pop out exactly at their
    # boundaries, never early, never duplicated.
    for i in range(len(wire)):
        dec.feed(wire[i:i + 1])
        got.extend(dec.frames())
    assert [(t, s, p) for t, s, p in got] == \
        [(DATA, i, p) for i, p in enumerate(payloads)]
    assert dec.pending_bytes == 0
    dec.check_eof()                      # clean boundary: no complaint


def test_frame_truncated_at_eof():
    dec = FrameDecoder()
    frame = encode_frame(DATA, 0, b"payload bytes")
    dec.feed(frame[:-3])
    assert list(dec.frames()) == []      # incomplete: waits, no error yet
    with pytest.raises(FrameTruncated):
        dec.check_eof()


def test_frame_truncated_inside_header():
    dec = FrameDecoder()
    dec.feed(encode_frame(DATA, 0, b"abc")[:HEADER_SIZE - 2])
    assert list(dec.frames()) == []
    with pytest.raises(FrameTruncated):
        dec.check_eof()


def test_frame_crc_error_on_flipped_payload_bit():
    dec = FrameDecoder()
    frame = bytearray(encode_frame(DATA, 0, b"payload bytes"))
    frame[HEADER_SIZE + 4] ^= 0x01
    dec.feed(bytes(frame))
    with pytest.raises(FrameCRCError):
        list(dec.frames())


def test_frame_bad_magic_is_lost_sync():
    dec = FrameDecoder()
    frame = bytearray(encode_frame(DATA, 0, b"x"))
    frame[0:4] = b"JUNK"
    dec.feed(bytes(frame))
    with pytest.raises(FrameError):
        list(dec.frames())


def test_frame_unknown_type_rejected():
    dec = FrameDecoder()
    frame = bytearray(encode_frame(DATA, 0, b"x"))
    frame[4:5] = b"Z"
    dec.feed(bytes(frame))
    with pytest.raises(FrameError):
        list(dec.frames())


def test_frame_length_cap_fails_before_allocation():
    # A corrupted length field must be a framing error, not an attempt
    # to buffer a "1 GiB + 1" payload.
    hdr = struct.Struct("<4sc Q I I").pack(FRAME_MAGIC, DATA, 0,
                                           MAX_FRAME_PAYLOAD + 1, 0)
    dec = FrameDecoder()
    dec.feed(hdr)
    with pytest.raises(FrameError, match="cap"):
        list(dec.frames())
    with pytest.raises(ValueError):
        encode_frame(DATA, 0, b"\0" * (MAX_FRAME_PAYLOAD + 1))


def test_frame_sequence_gap_detected():
    dec = FrameDecoder()
    dec.feed(encode_frame(DATA, 0, b"first"))
    dec.feed(encode_frame(DATA, 2, b"third"))   # frame 1 lost
    it = dec.frames()
    assert next(it)[2] == b"first"
    with pytest.raises(FrameSequenceError):
        next(it)


def test_frame_sequence_check_optional():
    dec = FrameDecoder(check_sequence=False)
    dec.feed(encode_frame(DATA, 5, b"a") + encode_frame(DATA, 3, b"b"))
    assert [p for _, _, p in dec.frames()] == [b"a", b"b"]


# ----------------------------------------------------------------------
# FrameConnection over a real socketpair
# ----------------------------------------------------------------------
def _conn_pair():
    a, b = socket.socketpair()
    return FrameConnection(a, name="a"), FrameConnection(b, name="b")


def test_connection_send_recv_poll_roundtrip():
    a, b = _conn_pair()
    try:
        assert not b.poll(0)
        a.send(("task", (0, 1), ("p0",), 7))
        a.send({"n": 2})
        assert b.poll(1.0)
        # One socket read decoded both frames: the second message is
        # queued (no further fd activity will announce it).
        assert b.recv() == ("task", (0, 1), ("p0",), 7)
        assert b.queued == 1
        assert b.poll(0)
        assert b.recv() == {"n": 2}
        assert b.queued == 0
    finally:
        a.close()
        b.close()


def test_connection_ping_pong_refreshes_last_heard():
    a, b = _conn_pair()
    try:
        before = a.last_heard
        time.sleep(0.02)
        a.ping()
        assert a.last_ping > 0
        # b answers the PING inside poll() without surfacing a message.
        assert not b.poll(0.5)
        # The PONG reply lands on a's side and refreshes last_heard
        # even though no DATA message ever arrives.
        assert not a.poll(0.5)
        assert a.last_heard > before
    finally:
        a.close()
        b.close()


def test_connection_clean_close_is_eof():
    a, b = _conn_pair()
    try:
        a.send("bye")
        a.close()
        assert b.recv() == "bye"
        with pytest.raises(EOFError):
            b.recv()
    finally:
        b.close()


def test_connection_midframe_close_is_truncation():
    a, b = socket.socketpair()
    conn = FrameConnection(b, name="victim")
    try:
        frame = encode_frame(DATA, 0, pickle.dumps("never arrives"))
        a.sendall(frame[:len(frame) - 5])
        a.close()
        with pytest.raises(FrameTruncated):
            conn.recv()
    finally:
        conn.close()


def test_connection_closed_raises_oserror():
    a, b = _conn_pair()
    a.close()
    b.close()
    with pytest.raises(OSError):
        a.send("x")
    with pytest.raises(OSError):
        b.recv()


# ----------------------------------------------------------------------
# Address parsing and backoff
# ----------------------------------------------------------------------
def test_parse_address():
    assert parse_address("node7:4321") == ("node7", 4321)
    assert parse_address(":4321") == ("127.0.0.1", 4321)
    assert parse_address(("h", "80")) == ("h", 80)
    assert parse_address(["h", 80]) == ("h", 80)
    for bad in ("nocolon", "host:", "host:notaport", ""):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_backoff_delay_grows_and_caps():
    delays = [backoff_delay(i, base=0.1, factor=2.0, max_delay=1.0,
                            jitter=0.0) for i in range(6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
    # Jitter only ever stretches the delay (anti-stampede), bounded by
    # the jitter fraction.
    rng = random.Random(42)
    for i in range(6):
        d = backoff_delay(i, base=0.1, factor=2.0, max_delay=1.0,
                          jitter=0.5, rng=rng)
        assert delays[i] <= d <= delays[i] * 1.5


def test_connect_backoff_schedule_with_fake_clock():
    sleeps = []
    tries = []

    def dial(address, timeout):
        tries.append(address)
        if len(tries) < 4:
            raise ConnectionRefusedError("nope")
        return "SOCK"

    sock = connect_backoff("127.0.0.1:9", attempts=5, base_delay=0.05,
                           factor=2.0, max_delay=10.0, jitter=0.0,
                           sleep=sleeps.append, connect=dial)
    assert sock == "SOCK"
    assert len(tries) == 4
    # Three failures -> three backoff sleeps, exponential from base.
    assert sleeps == [0.05, 0.1, 0.2]


def test_connect_backoff_exhaustion_raises_typed_error():
    sleeps = []

    def dial(address, timeout):
        raise ConnectionRefusedError("always down")

    with pytest.raises(NodeConnectError, match="after 3 attempt"):
        connect_backoff(("10.0.0.1", 1), attempts=3, base_delay=0.01,
                        jitter=0.0, sleep=sleeps.append, connect=dial)
    # No sleep after the final failure: the budget bounds wall-clock.
    assert sleeps == [0.01, 0.02]


def test_connect_backoff_jitter_uses_injected_rng():
    recorded = []

    class FixedRng:
        def random(self):
            return 1.0

    def dial(address, timeout):
        if not recorded:
            raise OSError("first")
        return "S"

    connect_backoff("h:1", attempts=2, base_delay=0.1, jitter=0.5,
                    sleep=recorded.append, rng=FixedRng(), connect=dial)
    assert recorded == [pytest.approx(0.15)]


# ----------------------------------------------------------------------
# Agent session protocol (real socket, in-process agent)
# ----------------------------------------------------------------------
def _nt_db(rng, n):
    db = SequenceDB(NT)
    for i in range(n):
        length = int(rng.integers(60, 200))
        db.add(f"s{i}", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def test_agent_session_protocol_and_stale_epoch():
    """Drive one agent session message by message: hello handshake,
    publish, task (with the epoch echoed back so the master can discard
    stale stragglers), adopt of a cached identity, and stop."""
    rng = np.random.default_rng(21)
    db = _nt_db(rng, 10)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(3)[:80].copy()
    registry = ShmRegistry()
    spec = pack_fragment(db, params.word_size, 4,
                         cache_token=(db_token(db), 0, 0), registry=registry)
    job = JobSpec(query=q, query_id="q", scheme=scheme, params=params,
                  both_strands=True, ka=resolve_ka(scheme, params, False),
                  effective_space=(len(q), db.total_residues))
    agent = NodeAgent("127.0.0.1", 0, node_id="proto-test")
    server = threading.Thread(target=agent.serve, kwargs={"max_sessions": 2},
                              daemon=True)
    server.start()
    try:
        sock = socket.create_connection(agent.address, timeout=5.0)
        conn = FrameConnection(sock, name="master")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 9}))
        kind, rank, info = conn.recv()
        assert (kind, rank) == ("ready", 9)
        assert info["node"] == "proto-test" and info["held"] == []

        conn.send(("publish", pack_wire_meta(spec), read_pack_bytes(spec)))
        conn.send(("job", 0, job))
        conn.send(("task", (0,), (spec.name,), 7))
        msg = conn.recv()
        assert msg[0] == "result" and msg[1] == 9
        assert msg[2] == (0,) and msg[3] == (spec.name,)
        assert msg[6] == 7          # epoch echoed: stale-epoch filtering
        mode, blob = msg[4]
        assert mode == "blob"
        pairs = decode_result_pairs(blob)
        serial = search(q, db, scheme, params, query_id="q")
        assert pairs[0][2].tabular() == serial.tabular()

        # An epoch the master has already left behind still comes back
        # tagged — the pool-side pump is what discards it; the agent
        # must never silently swallow a task.
        conn.send(("task", (0,), (spec.name,), 3))
        stale = conn.recv()
        assert stale[0] == "result" and stale[6] == 3

        conn.send(("stop",))
        stopped = conn.recv()
        assert stopped[0] == "stopped" and stopped[2]["tasks"] == 2
        conn.close()

        # Reconnect: the hello reply advertises the cached identity and
        # an adopt re-uses it without reshipping a byte.
        sock = socket.create_connection(agent.address, timeout=5.0)
        conn = FrameConnection(sock, name="master2")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 9}))
        _, _, info = conn.recv()
        assert tuple(spec.cache_token) in {tuple(t) for t in info["held"]}
        conn.send(("adopt", spec.name, spec.cache_token))
        conn.send(("job", 0, job))
        conn.send(("task", (0,), (spec.name,), 0))
        msg = conn.recv()
        assert msg[0] == "result"
        conn.send(("stop",))
        assert conn.recv()[0] == "stopped"
        conn.close()
    finally:
        server.join(timeout=10.0)
        agent.close()
        registry.release(spec.name)


def test_agent_rejects_adopt_of_unknown_identity():
    agent = NodeAgent("127.0.0.1", 0, node_id="reject-test")
    server = threading.Thread(target=agent.serve, kwargs={"max_sessions": 1},
                              daemon=True)
    server.start()
    try:
        sock = socket.create_connection(agent.address, timeout=5.0)
        conn = FrameConnection(sock, name="master")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 0}))
        assert conn.recv()[0] == "ready"
        conn.send(("adopt", "packX", ("tok", 0, 0)))
        msg = conn.recv()
        assert msg[0] == "error" and "not cached" in msg[4]
        conn.send(("stop",))
        assert conn.recv()[0] == "stopped"
        conn.close()
    finally:
        server.join(timeout=10.0)
        agent.close()


@pytest.mark.parametrize("proto", [PROTO_VERSION - 1, None])
def test_agent_refuses_other_wire_protocol(proto):
    """A master of another wire version (or none) gets an error and a
    closed session, never a ready."""
    agent = NodeAgent("127.0.0.1", 0, node_id="proto-agent")
    server = threading.Thread(target=agent.serve, kwargs={"max_sessions": 1},
                              daemon=True)
    server.start()
    try:
        sock = socket.create_connection(agent.address, timeout=5.0)
        conn = FrameConnection(sock, name="master")
        hello = {"rank": 2} if proto is None else {"proto": proto, "rank": 2}
        conn.send(("hello", hello))
        msg = conn.recv()
        assert msg[0] == "error" and "wire protocol" in msg[4]
        with pytest.raises(EOFError):
            conn.recv()
        conn.close()
    finally:
        server.join(timeout=10.0)
        agent.close()


def test_client_refuses_agent_of_other_wire_protocol():
    """An agent answering the hello with another wire version is
    refused by the master with a typed error."""
    lsock = socket.create_server(("127.0.0.1", 0))

    def old_agent():
        sock, _ = lsock.accept()
        conn = FrameConnection(sock, name="agent")
        conn.recv()                                   # the hello
        conn.send(("ready", 0, {"proto": PROTO_VERSION - 1, "held": []}))
        try:
            conn.recv()                               # until hung up
        except (EOFError, OSError, FrameError):
            pass
        conn.close()

    server = threading.Thread(target=old_agent, daemon=True)
    server.start()
    try:
        client = NodeClient(lsock.getsockname(), rank=0)
        with pytest.raises(NodeConnectError, match="wire protocol"):
            client.connect(hello_timeout=5.0)
        assert client.conn is None
    finally:
        server.join(timeout=10.0)
        lsock.close()
