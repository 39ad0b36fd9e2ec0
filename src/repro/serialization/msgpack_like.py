"""A from-scratch MessagePack-flavoured binary codec.

Implements the subset of the MessagePack wire format that the containers
and applications need: nil, bool, integers (fixint through int64/uint64),
float64, str, bin, array, map, and one ext slot for registered custom
types.  The encoding matches real MessagePack byte-for-byte for the
supported types, so the tests can assert against known vectors.  Python
values with no msgpack type (sets, numpy arrays, ints beyond 64 bits)
travel as ext types of their own, so no user map is ever mistaken for one.

No external library is used — the offline environment has none, and the
paper's point is only that DataBox can plug different backends.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Tuple

__all__ = ["MsgpackCodec", "pack", "unpack"]

_EXT_CUSTOM = 0x42  # single ext type code carrying (type_tag, payload)
_EXT_NDARRAY = 0x4E  # numpy arrays: (dtype_str, shape, raw bytes)
_EXT_SET = 0x53  # set/frozenset: array of its items
_EXT_BIGINT = 0x49  # int outside 64 bits: its hex string


class _Packer:
    def __init__(self, custom_encoder: Callable[[Any], Tuple[str, bytes]] | None):
        self.parts: list[bytes] = []
        self.custom_encoder = custom_encoder

    def pack(self, obj: Any) -> None:
        p = self.parts
        if obj is None:
            p.append(b"\xc0")
        elif obj is True:
            p.append(b"\xc3")
        elif obj is False:
            p.append(b"\xc2")
        elif isinstance(obj, int):
            self._pack_int(obj)
        elif isinstance(obj, float):
            p.append(b"\xcb" + struct.pack(">d", obj))
        elif isinstance(obj, str):
            raw = obj.encode("utf-8")
            n = len(raw)
            if n < 32:
                p.append(bytes([0xA0 | n]))
            elif n < 256:
                p.append(b"\xd9" + bytes([n]))
            elif n < 65536:
                p.append(b"\xda" + struct.pack(">H", n))
            else:
                p.append(b"\xdb" + struct.pack(">I", n))
            p.append(raw)
        elif isinstance(obj, (bytes, bytearray, memoryview)):
            raw = bytes(obj)
            n = len(raw)
            if n < 256:
                p.append(b"\xc4" + bytes([n]))
            elif n < 65536:
                p.append(b"\xc5" + struct.pack(">H", n))
            else:
                p.append(b"\xc6" + struct.pack(">I", n))
            p.append(raw)
        elif isinstance(obj, (list, tuple)):
            n = len(obj)
            if n < 16:
                p.append(bytes([0x90 | n]))
            elif n < 65536:
                p.append(b"\xdc" + struct.pack(">H", n))
            else:
                p.append(b"\xdd" + struct.pack(">I", n))
            for item in obj:
                self.pack(item)
        elif isinstance(obj, dict):
            n = len(obj)
            if n < 16:
                p.append(bytes([0x80 | n]))
            elif n < 65536:
                p.append(b"\xde" + struct.pack(">H", n))
            else:
                p.append(b"\xdf" + struct.pack(">I", n))
            for k, v in obj.items():
                self.pack(k)
                self.pack(v)
        elif isinstance(obj, (set, frozenset)):
            # Sets are not native msgpack: an ext holding their items,
            # sorted when they allow it so the encoding is deterministic.
            try:
                items = sorted(obj)
            except TypeError:
                items = list(obj)
            self._pack_ext(_EXT_SET, pack(items, self.custom_encoder))
        elif type(obj).__module__ == "numpy" and hasattr(obj, "tobytes"):
            # numpy arrays/scalars: dtype + shape + raw buffer as an ext.
            import numpy as np

            arr = np.ascontiguousarray(obj)
            body = (pack(arr.dtype.str) + pack(list(arr.shape))
                    + pack(arr.tobytes()))
            self._pack_ext(_EXT_NDARRAY, body)
        elif self.custom_encoder is not None:
            tag, payload = self.custom_encoder(obj)
            body = pack(tag) + payload
            self._pack_ext(_EXT_CUSTOM, body)
        else:
            raise TypeError(f"msgpack codec cannot serialize {type(obj).__name__}")

    def _pack_ext(self, ext_type: int, body: bytes) -> None:
        p = self.parts
        n = len(body)
        if n < 256:
            p.append(b"\xc7" + bytes([n, ext_type]))
        elif n < 65536:
            p.append(b"\xc8" + struct.pack(">H", n) + bytes([ext_type]))
        else:
            p.append(b"\xc9" + struct.pack(">I", n) + bytes([ext_type]))
        p.append(body)

    def _pack_int(self, v: int) -> None:
        p = self.parts
        if 0 <= v < 128:
            p.append(bytes([v]))
        elif -32 <= v < 0:
            p.append(struct.pack("b", v))
        elif 0 <= v < 256:
            p.append(b"\xcc" + bytes([v]))
        elif 0 <= v < 65536:
            p.append(b"\xcd" + struct.pack(">H", v))
        elif 0 <= v < 2**32:
            p.append(b"\xce" + struct.pack(">I", v))
        elif 0 <= v < 2**64:
            p.append(b"\xcf" + struct.pack(">Q", v))
        elif -128 <= v < 0:
            p.append(b"\xd0" + struct.pack("b", v))
        elif -32768 <= v < 0:
            p.append(b"\xd1" + struct.pack(">h", v))
        elif -(2**31) <= v < 0:
            p.append(b"\xd2" + struct.pack(">i", v))
        elif -(2**63) <= v < 0:
            p.append(b"\xd3" + struct.pack(">q", v))
        else:
            # Out of 64-bit range: arbitrary-precision escape hatch (not
            # standard msgpack, but Python ints are unbounded).
            self._pack_ext(_EXT_BIGINT, pack(hex(v)))


class _Unpacker:
    def __init__(self, data: bytes,
                 custom_decoder: Callable[[str, bytes], Any] | None):
        self.data = data
        self.pos = 0
        self.custom_decoder = custom_decoder

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated msgpack data")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self) -> Any:
        b = self._take(1)[0]
        if b < 0x80:
            return b
        if b >= 0xE0:
            return b - 256
        if 0x80 <= b <= 0x8F:
            return self._map(b & 0x0F)
        if 0x90 <= b <= 0x9F:
            return self._array(b & 0x0F)
        if 0xA0 <= b <= 0xBF:
            return self._take(b & 0x1F).decode("utf-8")
        handlers = {
            0xC0: lambda: None,
            0xC2: lambda: False,
            0xC3: lambda: True,
            0xC4: lambda: bytes(self._take(self._take(1)[0])),
            0xC5: lambda: bytes(self._take(struct.unpack(">H", self._take(2))[0])),
            0xC6: lambda: bytes(self._take(struct.unpack(">I", self._take(4))[0])),
            0xCA: lambda: struct.unpack(">f", self._take(4))[0],
            0xCB: lambda: struct.unpack(">d", self._take(8))[0],
            0xCC: lambda: self._take(1)[0],
            0xCD: lambda: struct.unpack(">H", self._take(2))[0],
            0xCE: lambda: struct.unpack(">I", self._take(4))[0],
            0xCF: lambda: struct.unpack(">Q", self._take(8))[0],
            0xD0: lambda: struct.unpack("b", self._take(1))[0],
            0xD1: lambda: struct.unpack(">h", self._take(2))[0],
            0xD2: lambda: struct.unpack(">i", self._take(4))[0],
            0xD3: lambda: struct.unpack(">q", self._take(8))[0],
            0xD9: lambda: self._take(self._take(1)[0]).decode("utf-8"),
            0xDA: lambda: self._take(
                struct.unpack(">H", self._take(2))[0]).decode("utf-8"),
            0xDB: lambda: self._take(
                struct.unpack(">I", self._take(4))[0]).decode("utf-8"),
            0xDC: lambda: self._array(struct.unpack(">H", self._take(2))[0]),
            0xDD: lambda: self._array(struct.unpack(">I", self._take(4))[0]),
            0xDE: lambda: self._map(struct.unpack(">H", self._take(2))[0]),
            0xDF: lambda: self._map(struct.unpack(">I", self._take(4))[0]),
        }
        if b in handlers:
            return handlers[b]()
        if b in (0xC7, 0xC8, 0xC9):
            if b == 0xC7:
                n = self._take(1)[0]
            elif b == 0xC8:
                n = struct.unpack(">H", self._take(2))[0]
            else:
                n = struct.unpack(">I", self._take(4))[0]
            ext_type = self._take(1)[0]
            body = self._take(n)
            return self._ext(ext_type, body)
        raise ValueError(f"unsupported msgpack type byte {b:#x}")

    def _array(self, n: int) -> list:
        return [self.unpack() for _ in range(n)]

    def _map(self, n: int) -> dict:
        out = {}
        for _ in range(n):
            k = self.unpack()
            out[k] = self.unpack()
        return out

    def _ext(self, ext_type: int, body: bytes) -> Any:
        if ext_type == _EXT_SET:
            return set(unpack(body, self.custom_decoder))
        if ext_type == _EXT_BIGINT:
            return int(unpack(body), 16)
        if ext_type == _EXT_NDARRAY:
            import numpy as np

            sub = _Unpacker(body, None)
            dtype = sub.unpack()
            shape = sub.unpack()
            raw = sub.unpack()
            return np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape)
        if ext_type != _EXT_CUSTOM or self.custom_decoder is None:
            raise ValueError(f"unknown ext type {ext_type}")
        sub = _Unpacker(body, None)
        tag = sub.unpack()
        return self.custom_decoder(tag, body[sub.pos:])


def pack(obj: Any,
         custom_encoder: Callable[[Any], Tuple[str, bytes]] | None = None) -> bytes:
    packer = _Packer(custom_encoder)
    packer.pack(obj)
    return b"".join(packer.parts)


def unpack(data: bytes,
           custom_decoder: Callable[[str, bytes], Any] | None = None) -> Any:
    unpacker = _Unpacker(data, custom_decoder)
    out = unpacker.unpack()
    if unpacker.pos != len(data):
        raise ValueError(
            f"trailing bytes after msgpack object ({len(data) - unpacker.pos})"
        )
    return out


class MsgpackCodec:
    """Codec object satisfying the DataBox backend protocol."""

    name = "msgpack"

    def __init__(self, custom_encoder=None, custom_decoder=None):
        self.custom_encoder = custom_encoder
        self.custom_decoder = custom_decoder

    def encode(self, obj: Any) -> bytes:
        return pack(obj, self.custom_encoder)

    def decode(self, data: bytes) -> Any:
        return unpack(data, self.custom_decoder)
