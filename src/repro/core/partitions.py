"""Month-partitioned on-disk dataset store (format v4), the format of
every dataset cache entry (:mod:`repro.synth.cache`).

The paper's analyses are longitudinal: every figure folds the market
month by month across the SET-UP/STABLE/COVID-19 eras.  A resident
:class:`~repro.core.columns.ColumnStore` holds the whole history in
memory (~617 MB at paper scale); this module stores the same tables as
*one npz shard per creation month* so a windowed or per-era query opens
only the months it touches, and a whole-history read
(:meth:`PartitionStore.tables`) reads each shard once.

Layout of one store directory::

    <entry>/
        manifest.json   # version 4, shard index, counts, sha256 checksums
        global.npz      # user_* / t_* / x_* columns (small, month-free)
        m000581.npz     # contracts/posts/ratings created in month 581
        m000582.npz     # (months since 1970-01; 581 == 2018-06)
        ...

Shards hold the cache column schema (``c_*``/``p_*``/``r_*`` keys, int64
µs timestamps, :data:`~repro.core.columns.NAT_US` sentinel) and are
written **uncompressed** by a small zip writer of this module (one
local header per npy member, a fixed timestamp, so a shard's bytes are
a function of its columns), so members can be memory-mapped straight
out of the zip container: opening a partition verifies the shard's
checksum and reads the zip directory, and a column's npy header and
bytes are read only when a kernel touches that column.

Text columns (``"str"`` in :data:`~repro.core.schema.COLUMN_SCHEMA`)
are stored as two members, ``<key>.utf8`` (the rows' UTF-8 bytes
back to back, uint8) and ``<key>.offsets`` (int64, rows + 1 entries;
row ``i`` is ``utf8[offsets[i]:offsets[i + 1]]``), and decoded back to
the fixed-width ``np.str_`` column only when a reader asks for that
column.  Most rows are empty — at paper scale 26k of 190k contracts
carry obligation text — so this costs the text's 3.6 MB instead of the
211 MB its fixed-width UTF-32 members took in v3 (a 236.5 MB store
became 34.9 MB).  The encoding is private to this module: writers
hand in any sequence of ``str`` and readers get ``np.str_`` arrays.

Stores are published atomically
(:func:`repro.robust.atomic.publish_dir`) and carry a sha256 checksum
for every file, verified on first open (the bytes hashed are counted as
``partition.verified_bytes``); a manifest that lacks one is corrupt.  A
store that shows anything a healthy store never shows — a torn or
checksum-less manifest at open, a shard that fails its checksum or does
not decode when read — moves itself to ``<path>.corrupt-<n>`` (counted
as ``cache.corrupt``) before raising :class:`CorruptStoreError`, so the
next open of a cache entry rebuilds it.  A store of another format
version reads as a stale miss and is overwritten by the next build.

Observability: every partition handed out bumps ``partition.opened`` —
the counter the streaming tests assert on to prove a windowed query
opened *only* its window — and ``materialize()`` (which rebuilds a full
resident table dict) bumps ``partition.materialized``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import struct
import zlib
from typing import (
    Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..obs.tracer import get_tracer
from ..robust.atomic import publish_dir, staging_dir
from ..robust.crashpoints import crash_point
from ..robust.quarantine import quarantine_dir
from .columns import (
    era_indexes_of,
    month_from_index,
    month_index_of,
    month_indexes_of,
)
from .eras import Era, era_by_name
from .lazy import ColumnBackedDataset
from .schema import (
    COLUMN_SCHEMA,
    CONTRACT_KEYS,
    GLOBAL_KEYS,
    POST_KEYS,
    RATING_KEYS,
    SHARD_KEYS,
    empty_column,
)
from .timeutils import Month

__all__ = [
    "PARTITION_FORMAT_VERSION",
    "MANIFEST_NAME",
    "GLOBAL_SHARD",
    "CONTRACT_KEYS",
    "POST_KEYS",
    "RATING_KEYS",
    "GLOBAL_KEYS",
    "CorruptStoreError",
    "StaleStoreError",
    "MonthPartition",
    "PartitionStore",
    "PartitionWriter",
    "partition_tables",
    "write_tables",
]

#: On-disk format version.  v3 was the first partitioned layout, with
#: text as fixed-width UTF-32 members; v4 stores text as UTF-8 bytes
#: plus row offsets (v1 and v2 were single-file entries, read as stale).
PARTITION_FORMAT_VERSION = 4

MANIFEST_NAME = "manifest.json"
GLOBAL_SHARD = "global.npz"

# The key tuples (CONTRACT_KEYS / POST_KEYS / RATING_KEYS / GLOBAL_KEYS)
# are declared once in :mod:`repro.core.schema` and re-exported here for
# the established import sites.
_SHARD_KEYS = SHARD_KEYS


class CorruptStoreError(Exception):
    """A partitioned store exists but cannot be trusted (torn publish,
    missing or mismatched checksum, undecodable shard)."""


class StaleStoreError(Exception):
    """Manifest belongs to another format version or fingerprint."""


def _corrupt(message: str, store_path: str) -> CorruptStoreError:
    """The error to raise for an untrustworthy store, after moving the
    store at ``store_path`` aside (a no-op once it is gone)."""
    quarantine_dir(store_path)
    return CorruptStoreError(message)


def _shard_name(month_idx: int) -> str:
    return f"m{month_idx:06d}.npz"


#: Columns stored as UTF-8 bytes plus row offsets instead of one array.
_TEXT_KEYS = frozenset(
    key for key, kind in COLUMN_SCHEMA.items() if kind == "str"
)
_UTF8 = ".utf8"
_OFFSETS = ".offsets"

#: A column as handed to the writer: an array, or a sequence of ``str``
#: for a text column (streamgen passes its Python lists as they are).
ColumnLike = Union[np.ndarray, Sequence[str]]


def _encode_text(values: ColumnLike) -> Tuple[np.ndarray, np.ndarray]:
    """One text column as (UTF-8 bytes, int64 row offsets).

    Only the non-empty rows are encoded; an empty row adds no bytes and
    repeats its offset, so no padded array is ever built.
    """
    rows = values.tolist() if isinstance(values, np.ndarray) else values
    lengths = np.zeros(len(rows) + 1, dtype=np.int64)
    filled = np.flatnonzero(
        np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    )
    encoded = [rows[i].encode("utf-8") for i in filled.tolist()]
    lengths[filled + 1] = np.fromiter(
        map(len, encoded), dtype=np.int64, count=len(encoded)
    )
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return data, np.cumsum(lengths)


def _decode_text(pieces: Sequence[Tuple[np.ndarray, np.ndarray]]
                 ) -> np.ndarray:
    """The fixed-width ``np.str_`` column that :func:`_encode_text`
    encoded as ``pieces`` of (UTF-8 bytes, row offsets), in order.

    The bytes of the non-empty rows are decoded in one call and their
    code points scattered into a UTF-32 array as wide as the longest
    row (at least 1, as ``np.asarray(values, dtype=np.str_)`` gives),
    so no Python object is built per row and several shards' pieces
    become one column without an intermediate column per shard.
    """
    raw = b"".join(data.tobytes() for data, _ in pieces)
    shifts = np.cumsum([0] + [len(data) for data, _ in pieces])
    offsets = np.concatenate([np.zeros(1, dtype=np.int64)] + [
        np.asarray(piece_offsets[1:]) + shift
        for (_, piece_offsets), shift in zip(pieces, shifts)
    ])
    utf8 = np.frombuffer(raw, dtype=np.uint8)
    codes = np.frombuffer(
        raw.decode("utf-8").encode("utf-32-le"), dtype="<u4"
    )
    # A row's first character sits at its byte offset less the UTF-8
    # continuation bytes before it.
    continuation = np.zeros(len(utf8) + 1, dtype=np.int64)
    np.cumsum((utf8 & 0xC0) == 0x80, out=continuation[1:])
    starts = offsets - continuation[offsets]
    lengths = np.diff(starts)
    width = max(int(lengths.max(initial=0)), 1)
    out = np.zeros((len(lengths), width), dtype="<u4")
    out.ravel()[
        np.arange(len(codes))
        + np.repeat(np.arange(len(lengths)) * width - starts[:-1], lengths)
    ] = codes
    return out.view(f"<U{width}").reshape(len(lengths))


def _members(tables: Dict[str, ColumnLike], keys: Sequence[str]
             ) -> Dict[str, np.ndarray]:
    """The npz members for ``keys`` of ``tables`` (text split in two)."""
    members: Dict[str, np.ndarray] = {}
    for key in keys:
        if key in _TEXT_KEYS:
            data, offsets = _encode_text(tables[key])
            members[key + _UTF8] = data
            members[key + _OFFSETS] = offsets
        else:
            members[key] = np.asarray(tables[key])
    return members


# --------------------------------------------------------------------- #
# npz shards: written in one pass, read mapped or from one read
# --------------------------------------------------------------------- #

#: ZIP local file header, central directory header and end record
#: (APPNOTE 4.3.7, 4.3.12, 4.3.16): every member stored, never deflated.
_ZIP_LOCAL = struct.Struct("<4s5H3L2H")
_ZIP_CENTRAL = struct.Struct("<4s6H3L5H2L")
_ZIP_END = struct.Struct("<4s4H2LH")
#: DOS date of 1980-01-01, the earliest a ZIP entry can carry.
_ZIP_DATE = 0x21


def _npy_bytes(array: np.ndarray) -> bytes:
    """``array`` as an npy v1.0 stream (the header ``np.save`` writes)."""
    if array.dtype.hasobject:
        raise TypeError("object columns cannot be stored without pickling")
    header = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (
        np.lib.format.dtype_to_descr(array.dtype), array.shape,
    )
    # Magic, version and length take 10 bytes; pad to 64 with a newline.
    header += " " * (-(len(header) + 11) % 64) + "\n"
    return (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header))
            + header.encode("latin1") + np.ascontiguousarray(array).tobytes())


def _write_npz(path: str, members: Dict[str, np.ndarray]) -> str:
    """Write ``members`` as an uncompressed npz at ``path``; return the
    sha256 of the bytes written.

    ``np.savez`` opens and closes a zip entry per member, which was most
    of a small store's build time; here the archive is assembled in
    memory with one local header per member, hashed and written once.
    """
    parts: List[bytes] = []
    central: List[bytes] = []
    offset = 0
    for key, array in members.items():
        name = (key + ".npy").encode("ascii")
        payload = _npy_bytes(array)
        crc, size = zlib.crc32(payload), len(payload)
        if offset + size >= 1 << 32:
            raise ValueError(f"shard {path} exceeds the 4 GiB zip limit")
        parts += [_ZIP_LOCAL.pack(b"PK\x03\x04", 20, 0, 0, 0, _ZIP_DATE,
                                  crc, size, size, len(name), 0),
                  name, payload]
        central.append(_ZIP_CENTRAL.pack(
            b"PK\x01\x02", 20, 20, 0, 0, 0, _ZIP_DATE, crc, size, size,
            len(name), 0, 0, 0, 0, 0, offset) + name)
        offset += _ZIP_LOCAL.size + len(name) + size
    directory = b"".join(central)
    parts += [directory, _ZIP_END.pack(b"PK\x05\x06", 0, 0, len(central),
                                        len(central), len(directory), offset, 0)]
    data = b"".join(parts)
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


def _npz_member_index(data: bytes) -> Dict[str, int]:
    """Map member name -> offset of its npy stream, for every stored
    (not deflated) npy member of the npz whose bytes are ``data``.

    ``np.load(..., mmap_mode=...)`` refuses zip containers, but a shard
    written by :class:`PartitionWriter` stores members uncompressed, so
    each npy stream is a contiguous byte range of the archive.  The end
    record, the central directory and each member's local header are
    read with ``struct`` (the local header, since ``np.savez`` gives it
    a zip64 extra field the directory entry lacks); a member's npy
    header is parsed when the member is first read (:func:`_npy_layout`).
    Compressed members are left out, so reading one fails like a
    missing member.  A directory that does not parse raises
    ``ValueError`` or ``struct.error``.
    """
    end = len(data) - _ZIP_END.size
    if data[end:end + 4] != b"PK\x05\x06":
        # The end record ends in a comment of up to 64 KiB.
        end = data.rfind(b"PK\x05\x06", max(0, end - 0xFFFF), end)
    if end < 0:
        raise ValueError("no zip end record")
    *_, count, size, offset, comment = _ZIP_END.unpack_from(data, end)
    if end + _ZIP_END.size + comment != len(data) or offset + size > end:
        raise ValueError("zip end record does not fit the archive")
    index: Dict[str, int] = {}
    at = offset
    for _ in range(count):
        (magic, _, _, _, method, _, _, _, _, stored, name_len, extra_len,
         comment_len, _, _, _, header) = _ZIP_CENTRAL.unpack_from(data, at)
        if magic != b"PK\x01\x02":
            raise ValueError(f"no zip directory entry at {at}")
        # Member names are ASCII; latin-1 decodes any byte without the
        # cp437 codec zipfile would import.
        name = data[at + _ZIP_CENTRAL.size:
                    at + _ZIP_CENTRAL.size + name_len].decode("latin-1")
        at += _ZIP_CENTRAL.size + name_len + extra_len + comment_len
        if method != 0 or not name.endswith(".npy"):
            continue
        local = _ZIP_LOCAL.unpack_from(data, header)
        if local[0] != b"PK\x03\x04":
            raise ValueError(f"no local header for {name}")
        payload = header + _ZIP_LOCAL.size + local[-2] + local[-1]
        if payload + stored > offset:
            raise ValueError(f"member {name} overruns the directory")
        index[name[: -len(".npy")]] = payload
    if at != offset + size:
        raise ValueError("zip directory size disagrees with its entries")
    return index


#: The npy header ``np.save`` writes for a plain (non-structured) array.
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']+)', 'fortran_order': (False|True), "
    r"'shape': \(([0-9, ]*)\), \}"
)
#: Bytes read from a shard file to parse one member's npy header; the
#: headers written here and by ``np.save`` take 64 to 128.
_NPY_HEAD_BYTES = 4096


def _npy_layout(buf: Union[bytes, memoryview], at: int) -> Optional[tuple]:
    """(data_offset, dtype, shape, fortran) of the npy stream starting at
    ``buf[at]``, or ``None`` for one that cannot be read in place."""
    if buf[at:at + 6] != b"\x93NUMPY":
        return None
    if buf[at + 6] == 1:
        (header_len,) = struct.unpack_from("<H", buf, at + 8)
        start = at + 10
    else:
        (header_len,) = struct.unpack_from("<I", buf, at + 8)
        start = at + 12
    if start + header_len > len(buf):
        return None
    match = _NPY_HEADER.match(str(buf[start:start + header_len], "latin1"))
    if match is None:
        return None
    dtype = np.dtype(match.group(1))
    if dtype.hasobject:
        return None  # pickled members can never be mapped
    shape = tuple(
        int(dim) for dim in match.group(3).split(",") if dim.strip()
    )
    return start + header_len, dtype, shape, match.group(2) == "True"


class _ShardFile:
    """Lazy column access into one npz shard.

    Columns are materialized on first access and memoized; an untouched
    column costs nothing beyond its zip directory entry.  A text column
    is decoded from its two members on first access.  The zip directory
    is parsed from ``data``, the shard's bytes as read to verify them.
    A shard that ``keep``s them takes each member as a view of those
    bytes; otherwise it maps each member read-only from its file, each
    with its own map, since one map over the whole shard would let page
    faults map the neighbouring, unread members too, and count them as
    resident.  A directory or member that does not decode moves the
    whole store aside (see :func:`_corrupt`).
    """

    def __init__(self, store_path: str, name: str, data: bytes,
                 keep: bool = False) -> None:
        self.store_path = store_path
        self.path = os.path.join(store_path, name)
        self._data = memoryview(data) if keep else None
        self._cols: Dict[str, np.ndarray] = {}
        try:
            self._index = _npz_member_index(data)
        except (ValueError, struct.error) as exc:
            raise _corrupt(f"unreadable shard {self.path}: {exc!r}",
                           store_path) from exc

    def __getitem__(self, key: str) -> np.ndarray:
        found = self._cols.get(key)
        if found is not None:
            return found
        if key in _TEXT_KEYS:
            col = _decode_column(key, [self])
        else:
            col = self._member(key)
        self._cols[key] = col
        return col

    def text(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """Text column ``key`` as its stored (UTF-8 bytes, row offsets)."""
        return self._member(key + _UTF8), self._member(key + _OFFSETS)

    def _member(self, name: str) -> np.ndarray:
        try:
            payload = self._index[name]
            if self._data is not None:
                layout = _npy_layout(self._data, payload)
            else:
                with open(self.path, "rb") as handle:
                    handle.seek(payload)
                    layout = _npy_layout(handle.read(_NPY_HEAD_BYTES), 0)
                if layout is not None:
                    layout = (payload + layout[0],) + layout[1:]
            if layout is None:
                raise ValueError("not a plain npy stream")
            offset, dtype, shape, fortran = layout
            count = math.prod(shape)
            if dtype.itemsize == 0 or count == 0:
                # mmap cannot map zero bytes; an empty column needs
                # no backing anyway.
                return np.empty(shape, dtype=dtype)
            order = "F" if fortran else "C"
            if self._data is not None:
                return np.frombuffer(
                    self._data, dtype=dtype, count=count, offset=offset,
                ).reshape(shape, order=order)
            return np.memmap(
                self.path, dtype=dtype, mode="r", offset=offset,
                shape=shape, order=order,
            )
        except (OSError, KeyError, TypeError, ValueError, struct.error) as exc:
            raise _corrupt(
                f"undecodable member {name!r} in {self.path}: {exc!r}",
                self.store_path,
            ) from exc


def _decode_column(key: str, shards: Sequence[_ShardFile]) -> np.ndarray:
    """Text column ``key`` of ``shards``, concatenated in order."""
    try:
        return _decode_text([shard.text(key) for shard in shards])
    except (ValueError, IndexError) as exc:  # UnicodeDecodeError included
        raise _corrupt(
            f"undecodable text column {key!r}: {exc!r}",
            shards[0].store_path,
        ) from exc


# --------------------------------------------------------------------- #
# partitions
# --------------------------------------------------------------------- #


class MonthPartition:
    """One month of the market: lazy columns plus derived buckets.

    Exposes the same derived columns as :class:`ColumnStore`
    (``settled_month_idx``, ``era_idx``, completion masks), computed
    with the shared helpers from :mod:`repro.core.columns`, so an
    incremental kernel folding partitions reproduces the resident
    kernel bit for bit.
    """

    def __init__(self, month_idx: int, shard: _ShardFile,
                 counts: Dict[str, int]) -> None:
        self.month_idx = int(month_idx)
        self.counts = counts
        self._shard = shard
        self._derived: Dict[str, np.ndarray] = {}

    @property
    def month(self) -> Month:
        return month_from_index(self.month_idx)

    @property
    def n_contracts(self) -> int:
        return int(self.counts.get("contracts", 0))

    def col(self, key: str) -> np.ndarray:
        """Raw shard column (lazy; memory-mapped where possible)."""
        return self._shard[key]

    def _memo(self, key: str, build) -> np.ndarray:
        found = self._derived.get(key)
        if found is None:
            found = build()
            self._derived[key] = found
        return found

    # -- derived columns (ColumnStore._finalize formulas) --------------- #

    @property
    def status(self) -> np.ndarray:
        return self.col("c_status")

    @property
    def ctype(self) -> np.ndarray:
        return self.col("c_type")

    @property
    def visibility(self) -> np.ndarray:
        return self.col("c_visibility")

    @property
    def created_us(self) -> np.ndarray:
        return self.col("c_created_us")

    @property
    def completed_us(self) -> np.ndarray:
        return self.col("c_completed_us")

    @property
    def maker_id(self) -> np.ndarray:
        return self.col("c_maker")

    @property
    def taker_id(self) -> np.ndarray:
        return self.col("c_taker")

    @property
    def thread_id(self) -> np.ndarray:
        return self.col("c_thread")

    @property
    def is_complete(self) -> np.ndarray:
        from .entities import ContractStatus
        from .columns import STATUS_ORDER

        code = STATUS_ORDER.index(ContractStatus.COMPLETE)
        return self._memo("is_complete", lambda: self.status == code)

    @property
    def has_completed(self) -> np.ndarray:
        from .columns import NAT_US

        return self._memo(
            "has_completed", lambda: self.completed_us != NAT_US
        )

    @property
    def is_public(self) -> np.ndarray:
        from .entities import Visibility
        from .columns import VISIBILITY_ORDER

        code = VISIBILITY_ORDER.index(Visibility.PUBLIC)
        return self._memo("is_public", lambda: self.visibility == code)

    @property
    def is_bidirectional(self) -> np.ndarray:
        from .entities import ContractType
        from .columns import CTYPE_ORDER

        exchange = CTYPE_ORDER.index(ContractType.EXCHANGE)
        trade = CTYPE_ORDER.index(ContractType.TRADE)
        return self._memo(
            "is_bidirectional",
            lambda: (self.ctype == exchange) | (self.ctype == trade),
        )

    @property
    def settled_month_idx(self) -> np.ndarray:
        def build() -> np.ndarray:
            completed_m = month_indexes_of(self.completed_us)
            return np.where(
                self.is_complete,
                np.where(self.has_completed, completed_m,
                         np.int64(self.month_idx)),
                np.int64(-1),
            )

        return self._memo("settled_month_idx", build)

    @property
    def era_idx(self) -> np.ndarray:
        return self._memo(
            "era_idx", lambda: era_indexes_of(self.created_us)
        )

    def era_mask(self, era_index: int) -> np.ndarray:
        return self.era_idx == era_index


# --------------------------------------------------------------------- #
# reader
# --------------------------------------------------------------------- #

MonthLike = Union[Month, int, str]
EraLike = Union[Era, str]


def _month_idx_of(value: MonthLike) -> int:
    if isinstance(value, Month):
        return month_index_of(value)
    if isinstance(value, str):
        return month_index_of(Month.parse(value))
    return int(value)


class PartitionStore:
    """Reader over one published store directory.

    Opening the store reads and validates only ``manifest.json``; a
    shard file is touched the first time its month is requested (its
    sha256 is verified once, then columns map lazily), or read whole by
    :meth:`tables`.  Every partition handed out bumps the
    ``partition.opened`` counter.
    """

    def __init__(self, path: str, manifest: Dict) -> None:
        self.path = path
        self.manifest = manifest
        self._shards: Dict[int, _ShardFile] = {}
        self._partitions: Dict[int, MonthPartition] = {}
        self._global: Optional[Dict[str, np.ndarray]] = None
        self._by_month: Dict[int, Dict] = {
            int(entry["month"]): entry for entry in manifest["months"]
        }
        self.months: List[int] = sorted(self._by_month)

    # -- opening -------------------------------------------------------- #

    @classmethod
    def open(cls, path: str,
             expect_fingerprint: Optional[str] = None) -> "PartitionStore":
        """Open a published store, validating the manifest.

        Raises :class:`StaleStoreError` on version/fingerprint mismatch
        (the store is healthy, just not the one asked for) and, after
        quarantining the store, :class:`CorruptStoreError` on anything a
        healthy store never exhibits, a file the manifest gives no
        checksum for included.
        """
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.isfile(manifest_path):
            if os.path.isfile(os.path.join(path, "meta.json")):
                # A cache entry of the retired single-file format.
                raise StaleStoreError("format v2")
            raise _corrupt(f"no manifest at {path}", path)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise _corrupt(f"unreadable manifest: {exc}", path) from exc
        if not isinstance(manifest, dict) or "months" not in manifest:
            raise _corrupt("malformed manifest", path)
        if manifest.get("version") != PARTITION_FORMAT_VERSION:
            raise StaleStoreError(
                f"format v{manifest.get('version')!r}, "
                f"want v{PARTITION_FORMAT_VERSION}"
            )
        if (expect_fingerprint is not None
                and manifest.get("fingerprint") != expect_fingerprint):
            raise StaleStoreError("config fingerprint mismatch")
        months = manifest["months"]
        if not isinstance(months, list) or not all(
            isinstance(entry, dict) and "month" in entry and "file" in entry
            for entry in months
        ):
            raise _corrupt("malformed manifest month index", path)
        checksums = manifest.get("checksums")
        unchecked = [
            name for name in [GLOBAL_SHARD] + [e["file"] for e in months]
            if not isinstance(checksums, dict) or name not in checksums
        ]
        if unchecked:
            raise _corrupt(
                f"manifest gives no checksum for {unchecked[0]}", path
            )
        return cls(path, manifest)

    # -- shard access --------------------------------------------------- #

    def _verified(self, name: str) -> bytes:
        """The bytes of shard ``name``, read once and checked against the
        manifest's sha256."""
        try:
            with open(os.path.join(self.path, name), "rb") as handle:
                data = handle.read()
        except FileNotFoundError as exc:
            raise _corrupt(f"missing shard {name}", self.path) from exc
        get_tracer().count("partition.verified_bytes", len(data))
        expected = self.manifest["checksums"][name]
        digest = hashlib.sha256(data).hexdigest()
        if digest != expected:
            raise _corrupt(
                f"checksum mismatch on {name} "
                f"(manifest {expected[:12]}…, file {digest[:12]}…)",
                self.path,
            )
        return data

    def partition(self, month: MonthLike) -> MonthPartition:
        """The partition for one month; bumps ``partition.opened``."""
        month_idx = _month_idx_of(month)
        entry = self._by_month.get(month_idx)
        if entry is None:
            raise KeyError(f"no partition for month index {month_idx}")
        get_tracer().count("partition.opened")
        found = self._partitions.get(month_idx)
        if found is None:
            name = entry["file"]
            shard = _ShardFile(self.path, name, self._verified(name))
            found = MonthPartition(
                month_idx, shard, dict(entry.get("counts", {}))
            )
            self._shards[month_idx] = shard
            self._partitions[month_idx] = found
        return found

    def select_months(
        self,
        months: Optional[Sequence[MonthLike]] = None,
        start: Optional[MonthLike] = None,
        end: Optional[MonthLike] = None,
        era: Optional[EraLike] = None,
    ) -> List[int]:
        """Month indexes a query with these bounds must open (no I/O).

        ``era`` restricts to the calendar months the era touches (its
        boundary months carry an ``era_idx`` row mask for exact row
        selection); ``start``/``end`` give an inclusive month window;
        ``months`` an explicit list.  All filters intersect.
        """
        wanted = set(self.months)
        if era is not None:
            if isinstance(era, str):
                era = era_by_name(era)
            wanted &= {month_index_of(m) for m in era.months()}
        if start is not None:
            lo = _month_idx_of(start)
            wanted = {m for m in wanted if m >= lo}
        if end is not None:
            hi = _month_idx_of(end)
            wanted = {m for m in wanted if m <= hi}
        if months is not None:
            wanted &= {_month_idx_of(m) for m in months}
        return sorted(wanted)

    def iter_months(
        self,
        months: Optional[Sequence[MonthLike]] = None,
        start: Optional[MonthLike] = None,
        end: Optional[MonthLike] = None,
        era: Optional[EraLike] = None,
    ) -> Iterator[MonthPartition]:
        """Iterate partitions in month order, opening only the selection."""
        for month_idx in self.select_months(months, start, end, era):
            yield self.partition(month_idx)

    # -- global tables & materialization -------------------------------- #

    def global_tables(self) -> Dict[str, np.ndarray]:
        """The month-free tables (users/threads/ledger), loaded once."""
        if self._global is None:
            get_tracer().count("partition.global_opened")
            shard = _ShardFile(
                self.path, GLOBAL_SHARD, self._verified(GLOBAL_SHARD)
            )
            self._global = {key: shard[key] for key in GLOBAL_KEYS}
        return self._global

    def tables(self) -> Dict[str, np.ndarray]:
        """Full resident table dict: global tables plus every month shard
        concatenated in month order.  This defeats the point of the
        partitioning — prefer ``iter_months`` — but the classic
        registry's resident analyses need it.  For a generated store it
        equals the resident market of the same config, column for
        column.

        The whole-history read, traced as ``partition.read``: each shard
        is read once, its bytes checked against the manifest and its
        columns taken from the same bytes, which are dropped once the
        columns are concatenated.
        """
        tracer = get_tracer()
        with tracer.span("partition.read"):
            tracer.count("partition.global_opened")
            global_shard = _ShardFile(
                self.path, GLOBAL_SHARD, self._verified(GLOBAL_SHARD),
                keep=True,
            )
            out: Dict[str, np.ndarray] = {
                key: global_shard[key] for key in GLOBAL_KEYS
            }
            shards = []
            for month_idx in self.months:
                tracer.count("partition.opened")
                name = self._by_month[month_idx]["file"]
                shards.append(_ShardFile(
                    self.path, name, self._verified(name), keep=True
                ))
            for key in _SHARD_KEYS:
                if key in _TEXT_KEYS:
                    out[key] = _decode_column(key, shards)
                elif shards:
                    out[key] = np.concatenate([shard[key] for shard in shards])
                else:
                    out[key] = empty_column(key)
        return out

    def materialize(self) -> ColumnBackedDataset:
        """Rebuild a resident :class:`ColumnBackedDataset` (all months).

        Counted as ``partition.materialized`` — reprolint flags analysis
        code that reaches for this instead of the partition iterator.
        """
        tracer = get_tracer()
        with tracer.span("partition.materialize"):
            tables = self.tables()
        tracer.count("partition.materialized")
        return ColumnBackedDataset(tables)


def open_or_quarantine(path: str,
                       expect_fingerprint: Optional[str] = None
                       ) -> Optional[PartitionStore]:
    """Open a store, or report a miss.

    Returns ``None`` for missing, stale or corrupt stores; a corrupt one
    has quarantined itself (counted as ``cache.corrupt``).
    """
    if not os.path.isdir(path):
        return None
    try:
        return PartitionStore.open(path, expect_fingerprint)
    except (StaleStoreError, CorruptStoreError):
        return None


# --------------------------------------------------------------------- #
# writer
# --------------------------------------------------------------------- #


def _empty_shard_tables() -> Dict[str, np.ndarray]:
    """Schema-complete empty shard (dtypes from :mod:`repro.core.schema`)."""
    return {key: empty_column(key) for key in SHARD_KEYS}


class PartitionWriter:
    """Stages a partitioned store and publishes it atomically.

    Usage::

        writer = PartitionWriter(final_path, meta={"fingerprint": fp})
        for month_idx, shard_tables in month_stream:
            writer.add_month(month_idx, shard_tables)   # appended order
        writer.set_global(global_tables)
        writer.finalize()                               # atomic publish

    Months are append-only and strictly increasing, mirroring how the
    streaming generator emits them.  Until :meth:`finalize` swaps the
    staging directory into place, readers see either the previous store
    or none — never a torn one.
    """

    def __init__(self, final_path: str, meta: Optional[Dict] = None) -> None:
        self.final_path = final_path
        self.stage = staging_dir(final_path)
        if os.path.exists(self.stage):
            shutil.rmtree(self.stage)
        os.makedirs(self.stage)
        os.makedirs(os.path.dirname(os.path.abspath(final_path)), exist_ok=True)
        self._meta = dict(meta or {})
        self._months: List[Dict] = []
        self._checksums: Dict[str, str] = {}
        self._finalized = False

    def add_month(self, month_idx: int, tables: Dict[str, ColumnLike]) -> None:
        """Write one month shard (``c_*``/``p_*``/``r_*`` keys).

        Missing keys are filled with schema-complete empty columns, so a
        month with contracts but no posts still round-trips.  A text
        column may be any sequence of ``str``.
        """
        month_idx = int(month_idx)
        if self._months and month_idx <= self._months[-1]["month"]:
            raise ValueError(
                f"months must be appended in increasing order "
                f"(got {month_idx} after {self._months[-1]['month']})"
            )
        full: Dict[str, ColumnLike] = dict(_empty_shard_tables())
        for key, col in tables.items():
            if key not in full:
                raise KeyError(f"unknown shard column {key!r}")
            full[key] = col
        name = _shard_name(month_idx)
        # Uncompressed container: members stay ZIP_STORED so the reader
        # can memory-map them in place.
        self._checksums[name] = _write_npz(
            os.path.join(self.stage, name), _members(full, SHARD_KEYS)
        )
        crash_point("partition.save.mid_write")
        self._months.append({
            "month": month_idx,
            "file": name,
            "counts": {
                "contracts": int(len(full["c_id"])),
                "posts": int(len(full["p_id"])),
                "ratings": int(len(full["r_contract"])),
            },
        })
        get_tracer().count("partition.written")

    def set_global(self, tables: Dict[str, ColumnLike]) -> None:
        """Write the month-free tables (users/threads/ledger)."""
        self._checksums[GLOBAL_SHARD] = _write_npz(
            os.path.join(self.stage, GLOBAL_SHARD),
            _members(tables, GLOBAL_KEYS),
        )

    def finalize(self) -> str:
        """Write the manifest, with every shard's checksum, and publish."""
        if GLOBAL_SHARD not in self._checksums:
            raise RuntimeError("set_global() must run before finalize()")
        manifest = {
            "version": PARTITION_FORMAT_VERSION,
            "months": self._months,
            "global": GLOBAL_SHARD,
            "checksums": self._checksums,
            **self._meta,
        }
        with open(os.path.join(self.stage, MANIFEST_NAME), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        crash_point("partition.save.before_publish")
        publish_dir(self.stage, self.final_path)
        crash_point("partition.save.after_publish")
        self._finalized = True
        return self.final_path

    def abort(self) -> None:
        """Drop the staging directory (no-op after finalize)."""
        if not self._finalized and os.path.exists(self.stage):
            shutil.rmtree(self.stage, ignore_errors=True)


# --------------------------------------------------------------------- #
# resident-table splitter
# --------------------------------------------------------------------- #


def partition_tables(tables: Dict[str, np.ndarray]):
    """Split one resident table dict into (global_tables, month_shards).

    ``month_shards`` maps month index -> shard table dict; contracts
    bucket by creation month, posts and ratings by their own creation
    stamps.  Row order within a month is preserved, so a partitioned
    store materializes back to the same tables in month-major order.
    The generator does not come this way: it streams its month tables
    straight to a :class:`PartitionWriter`.
    """
    global_tables = {key: tables[key] for key in GLOBAL_KEYS}
    c_months = month_indexes_of(np.asarray(tables["c_created_us"], np.int64))
    p_months = month_indexes_of(np.asarray(tables["p_created_us"], np.int64))
    r_months = month_indexes_of(np.asarray(tables["r_created_us"], np.int64))
    all_months = np.unique(np.concatenate([
        c_months[c_months >= 0], p_months[p_months >= 0],
        r_months[r_months >= 0],
    ]))
    shards: Dict[int, Dict[str, np.ndarray]] = {}
    for month_idx in all_months.tolist():
        shard: Dict[str, np.ndarray] = {}
        c_rows = np.nonzero(c_months == month_idx)[0]
        for key in CONTRACT_KEYS:
            shard[key] = np.asarray(tables[key])[c_rows]
        p_rows = np.nonzero(p_months == month_idx)[0]
        for key in POST_KEYS:
            shard[key] = np.asarray(tables[key])[p_rows]
        r_rows = np.nonzero(r_months == month_idx)[0]
        for key in RATING_KEYS:
            shard[key] = np.asarray(tables[key])[r_rows]
        shards[month_idx] = shard
    return global_tables, shards


def write_tables(
    tables: Dict[str, np.ndarray],
    final_path: str,
    meta: Optional[Dict] = None,
) -> str:
    """Partition one resident table dict and publish it at ``final_path``.

    Convenience over :func:`partition_tables` + :class:`PartitionWriter`
    for callers that already hold full-history tables.  Returns the
    store path.
    """
    global_tables, shards = partition_tables(tables)
    writer = PartitionWriter(final_path, meta=meta)
    try:
        for month_idx in sorted(shards):
            writer.add_month(month_idx, shards[month_idx])
        writer.set_global(global_tables)
        return writer.finalize()
    # robust: cleanup-and-reraise — staging must not leak, nothing is swallowed
    except BaseException:
        writer.abort()
        raise
