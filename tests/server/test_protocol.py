"""Frame codec unit tests: framing, limits, malformed input."""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import pytest

from repro.server.protocol import (MAX_FRAME_BYTES, GarbledFrameError,
                                   OversizedFrameError, TornFrameError,
                                   decode_body, encode_frame, read_frame,
                                   read_frame_sync, write_frame_sync)


def read_from(data: bytes, **kwargs):
    """Run read_frame against a pre-fed StreamReader (built on-loop)."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader, **kwargs)

    return asyncio.run(go())


class TestEncodeDecode:
    def test_round_trip(self):
        frame = {"kind": "QUERY", "id": 7, "s2sql": "SELECT Product"}
        encoded = encode_frame(frame)
        (length,) = struct.unpack(">I", encoded[:4])
        assert length == len(encoded) - 4
        assert decode_body(encoded[4:]) == frame

    def test_unicode_survives(self):
        frame = {"kind": "QUERY", "s2sql": 'SELECT Product WHERE name = "Čašió"'}
        assert decode_body(encode_frame(frame)[4:]) == frame

    def test_encode_rejects_oversized(self):
        with pytest.raises(OversizedFrameError):
            encode_frame({"kind": "X", "blob": "a" * 2048}, max_bytes=1024)

    def test_decode_rejects_non_json(self):
        with pytest.raises(GarbledFrameError):
            decode_body(b"\xff\xfenot json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(GarbledFrameError):
            decode_body(b'[1, 2, 3]')

    def test_decode_rejects_missing_kind(self):
        with pytest.raises(GarbledFrameError):
            decode_body(b'{"id": 1}')

    def test_decode_rejects_deep_nesting(self):
        # ~200 KB, far under MAX_FRAME_BYTES, yet deeper than any stack.
        depth = 100_000
        body = b'{"kind": "HELLO", "x": ' + b"[" * depth + b"]" * depth + b"}"
        assert len(body) < MAX_FRAME_BYTES
        with pytest.raises(GarbledFrameError, match="nests too deeply"):
            decode_body(body)


class TestAsyncRead:
    def test_reads_one_frame(self):
        frame = {"kind": "STATUS", "id": 1}
        assert read_from(encode_frame(frame)) == frame

    def test_clean_eof_returns_none(self):
        assert read_from(b"") is None

    def test_eof_inside_header_is_torn(self):
        with pytest.raises(TornFrameError):
            read_from(b"\x00\x00")

    def test_eof_inside_body_is_torn(self):
        with pytest.raises(TornFrameError):
            read_from(encode_frame({"kind": "STATUS"})[:-3])

    def test_oversized_rejected_from_header_alone(self):
        # Only the 4 header bytes arrive; the declared length is enough
        # to refuse — the body is never waited for (hostile lengths
        # cannot balloon memory).
        with pytest.raises(OversizedFrameError):
            read_from(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_custom_ceiling(self):
        data = encode_frame({"kind": "X", "pad": "a" * 600})
        with pytest.raises(OversizedFrameError):
            read_from(data, max_bytes=512)

    def test_garbage_body(self):
        body = b"<html>not a frame</html>"
        with pytest.raises(GarbledFrameError):
            read_from(struct.pack(">I", len(body)) + body)

    def test_two_frames_back_to_back(self):
        data = encode_frame({"kind": "A"}) + encode_frame({"kind": "B"})

        async def both():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader), await read_frame(reader)

        first, second = asyncio.run(both())
        assert first == {"kind": "A"}
        assert second == {"kind": "B"}


class TestSyncRead:
    """The blocking twins, over a real socketpair."""

    def exchange(self, payload: bytes) -> socket.socket:
        ours, theirs = socket.socketpair()
        ours.settimeout(5.0)

        def send():
            theirs.sendall(payload)
            theirs.close()

        threading.Thread(target=send, daemon=True).start()
        return ours

    def test_round_trip(self):
        ours, theirs = socket.socketpair()
        write_frame_sync(ours, {"kind": "HELLO", "tenant": "t"})
        theirs.settimeout(5.0)
        assert read_frame_sync(theirs) == {"kind": "HELLO", "tenant": "t"}
        ours.close()
        theirs.close()

    def test_clean_eof_returns_none(self):
        sock = self.exchange(b"")
        assert read_frame_sync(sock) is None
        sock.close()

    def test_torn_header(self):
        sock = self.exchange(b"\x00\x00\x01")
        with pytest.raises(TornFrameError):
            read_frame_sync(sock)
        sock.close()

    def test_torn_body(self):
        sock = self.exchange(encode_frame({"kind": "STATUS"})[:-2])
        with pytest.raises(TornFrameError):
            read_frame_sync(sock)
        sock.close()

    def test_oversized_declared_length(self):
        sock = self.exchange(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(OversizedFrameError):
            read_frame_sync(sock)
        sock.close()
