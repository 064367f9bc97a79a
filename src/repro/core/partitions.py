"""Month-partitioned on-disk dataset store (cache format v4).

The paper's analyses are longitudinal: every figure folds the market
month by month across the SET-UP/STABLE/COVID-19 eras.  A resident
:class:`~repro.core.columns.ColumnStore` holds the whole history in
memory (~617 MB at paper scale); this module stores the same tables as
*one npz shard per creation month* so a windowed or per-era query opens
only the months it touches.

Layout of one store directory::

    <entry>/
        manifest.json   # version 4, shard index, counts, sha256 checksums
        global.npz      # user_* / t_* / x_* columns (small, month-free)
        m000581.npz     # contracts/posts/ratings created in month 581
        m000582.npz     # (months since 1970-01; 581 == 2018-06)
        ...

Shards hold the cache column schema (``c_*``/``p_*``/``r_*`` keys, int64
µs timestamps, :data:`~repro.core.columns.NAT_US` sentinel) and are
written **uncompressed**, so members can be memory-mapped straight out
of the zip container: opening a partition reads the manifest and the
zip directory, and a column's npy header and bytes are read only when a
kernel touches that column.

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
(:func:`repro.robust.atomic.publish_dir`), carry per-file sha256
checksums verified on first open (the bytes hashed are counted as
``partition.verified_bytes``), and quarantine to
``<entry>.corrupt-<n>`` like the v2 cache (counted as
``partition.corrupt``).  A store of another format version reads as a
stale miss and is overwritten by the next build.

Observability: every partition handed out bumps ``partition.opened`` —
the counter the streaming tests assert on to prove a windowed query
opened *only* its window — and ``materialize()`` (which rebuilds a full
resident table dict) bumps ``partition.materialized``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import struct
import zipfile
from typing import (
    BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..obs.tracer import get_tracer
from ..robust.atomic import publish_dir, sha256_file, staging_dir
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
#: plus row offsets (v1/v2 are the monolithic ``data.npz`` entries of
#: :mod:`repro.synth.cache`).
PARTITION_FORMAT_VERSION = 4

MANIFEST_NAME = "manifest.json"
GLOBAL_SHARD = "global.npz"

# The key tuples (CONTRACT_KEYS / POST_KEYS / RATING_KEYS / GLOBAL_KEYS)
# are declared once in :mod:`repro.core.schema` and re-exported here for
# the established import sites.
_SHARD_KEYS = SHARD_KEYS


class CorruptStoreError(Exception):
    """A partitioned store exists but cannot be trusted (torn publish,
    checksum mismatch, undecodable shard); callers quarantine it."""


class StaleStoreError(Exception):
    """Manifest belongs to another format version or fingerprint."""


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
# memory-mapped npz access
# --------------------------------------------------------------------- #


def _npz_member_index(path: str) -> Dict[str, int]:
    """Map member name -> offset of its npy stream, for every ZIP_STORED
    npy member of an uncompressed npz.

    ``np.load(..., mmap_mode=...)`` refuses zip containers, but a shard
    written by :class:`PartitionWriter` stores members uncompressed, so
    each npy stream is a contiguous byte range of the archive file.
    Only the zip directory and local headers are read here; a member's
    npy header is parsed when the member is first read
    (:func:`_npy_layout`).  Compressed members are left out; the reader
    falls back to ``np.load`` for them.
    """
    index: Dict[str, int] = {}
    with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
        for info in archive.infolist():
            name = info.filename
            if not name.endswith(".npy") or info.compress_type != zipfile.ZIP_STORED:
                continue
            # Local file header: 30 fixed bytes, then name and extra
            # field, then the stored payload (the raw .npy stream).
            handle.seek(info.header_offset)
            local = handle.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                continue
            name_len, extra_len = struct.unpack("<HH", local[26:30])
            index[name[: -len(".npy")]] = (
                info.header_offset + 30 + name_len + extra_len
            )
    return index


#: The npy header ``np.savez`` writes for a plain (non-structured) array.
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']+)', 'fortran_order': (False|True), "
    r"'shape': \(([0-9, ]*)\), \}"
)


def _npy_layout(handle: BinaryIO, payload: int) -> Optional[tuple]:
    """(data_offset, dtype, shape, fortran) of the npy stream at
    ``payload``, or ``None`` for one that cannot be mapped in place."""
    handle.seek(payload)
    magic = handle.read(8)
    if magic[:6] != b"\x93NUMPY":
        return None
    if magic[6] == 1:
        (header_len,) = struct.unpack("<H", handle.read(2))
        data_offset = payload + 10 + header_len
    else:
        (header_len,) = struct.unpack("<I", handle.read(4))
        data_offset = payload + 12 + header_len
    match = _NPY_HEADER.match(handle.read(header_len).decode("latin1"))
    if match is None:
        return None
    dtype = np.dtype(match.group(1))
    if dtype.hasobject:
        return None  # pickled members can never be mapped
    shape = tuple(
        int(dim) for dim in match.group(3).split(",") if dim.strip()
    )
    return data_offset, dtype, shape, match.group(2) == "True"


class _ShardFile:
    """Lazy column access into one npz shard, memory-mapped per member.

    Columns are materialized (as read-only memmaps where possible, via
    ``np.load`` otherwise) on first access and memoized; an untouched
    column costs nothing beyond its zip directory entry.  A text column
    is decoded from its two members on first access.  Each member gets
    its own map: one map over the whole shard would let page faults map
    the neighbouring, unread members too, and count them as resident.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._cols: Dict[str, np.ndarray] = {}
        try:
            self._index = _npz_member_index(path)
        except (OSError, zipfile.BadZipFile, EOFError) as exc:
            raise CorruptStoreError(f"unreadable shard {path}: {exc!r}") from exc

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
        payload = self._index.get(name)
        try:
            with open(self.path, "rb") as handle:
                layout = (
                    None if payload is None else _npy_layout(handle, payload)
                )
                if layout is not None:
                    offset, dtype, shape, fortran = layout
                    if dtype.itemsize == 0 or int(np.prod(shape)) == 0:
                        # mmap cannot map zero bytes; an empty column
                        # needs no backing anyway.
                        return np.empty(shape, dtype=dtype)
                    return np.memmap(
                        handle, dtype=dtype, mode="r", offset=offset,
                        shape=shape, order="F" if fortran else "C",
                    )
            with np.load(self.path) as data:
                return data[name]
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise CorruptStoreError(
                f"undecodable member {name!r} in {self.path}: {exc!r}"
            ) from exc


def _decode_column(key: str, shards: Sequence[_ShardFile]) -> np.ndarray:
    """Text column ``key`` of ``shards``, concatenated in order."""
    try:
        return _decode_text([shard.text(key) for shard in shards])
    except (ValueError, IndexError) as exc:  # UnicodeDecodeError included
        raise CorruptStoreError(
            f"undecodable text column {key!r}: {exc!r}"
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
    sha256 is verified once, then columns map lazily).  Every partition
    handed out bumps the ``partition.opened`` counter.
    """

    def __init__(self, path: str, manifest: Dict) -> None:
        self.path = path
        self.manifest = manifest
        self._shards: Dict[int, _ShardFile] = {}
        self._partitions: Dict[int, MonthPartition] = {}
        self._verified: Dict[str, bool] = {}
        self._global: Optional[Dict[str, np.ndarray]] = None
        self._by_month: Dict[int, Dict] = {
            int(entry["month"]): entry for entry in manifest.get("months", [])
        }
        self.months: List[int] = sorted(self._by_month)

    # -- opening -------------------------------------------------------- #

    @classmethod
    def open(cls, path: str,
             expect_fingerprint: Optional[str] = None) -> "PartitionStore":
        """Open a published store, validating the manifest.

        Raises :class:`StaleStoreError` on version/fingerprint mismatch
        (the store is healthy, just not the one asked for) and
        :class:`CorruptStoreError` on anything a healthy store never
        exhibits.  Callers that can regenerate should quarantine on the
        latter (see :func:`open_or_quarantine`).
        """
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.isfile(manifest_path):
            raise CorruptStoreError(f"no manifest at {path}")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CorruptStoreError(f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict) or "months" not in manifest:
            raise CorruptStoreError("malformed manifest")
        if manifest.get("version") != PARTITION_FORMAT_VERSION:
            raise StaleStoreError(
                f"format v{manifest.get('version')!r}, "
                f"want v{PARTITION_FORMAT_VERSION}"
            )
        if (expect_fingerprint is not None
                and manifest.get("fingerprint") != expect_fingerprint):
            raise StaleStoreError("config fingerprint mismatch")
        return cls(path, manifest)

    # -- shard access --------------------------------------------------- #

    def _verify(self, name: str) -> None:
        if self._verified.get(name):
            return
        checksums = self.manifest.get("checksums", {})
        expected = checksums.get(name)
        full = os.path.join(self.path, name)
        if not os.path.isfile(full):
            raise CorruptStoreError(f"missing shard {name}")
        if expected is not None:
            digest = sha256_file(full)
            get_tracer().count(
                "partition.verified_bytes", os.path.getsize(full)
            )
            if digest != expected:
                raise CorruptStoreError(
                    f"checksum mismatch on {name} "
                    f"(manifest {expected[:12]}…, file {digest[:12]}…)"
                )
        self._verified[name] = True

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
            self._verify(name)
            shard = _ShardFile(os.path.join(self.path, name))
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
            self._verify(GLOBAL_SHARD)
            shard = _ShardFile(os.path.join(self.path, GLOBAL_SHARD))
            self._global = {key: shard[key] for key in GLOBAL_KEYS}
        return self._global

    def tables(self) -> Dict[str, np.ndarray]:
        """Full resident table dict: global tables plus every month shard
        concatenated in month order.  This defeats the point of the
        partitioning — prefer ``iter_months`` — but legacy object-path
        consumers need it."""
        out: Dict[str, np.ndarray] = dict(self.global_tables())
        parts = list(self.iter_months())
        for key in _SHARD_KEYS:
            if key in _TEXT_KEYS:
                out[key] = _decode_column(
                    key, [self._shards[part.month_idx] for part in parts]
                )
            elif parts:
                out[key] = np.concatenate([part.col(key) for part in parts])
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
    """Open a store; quarantine and report a miss when it is corrupt.

    Returns ``None`` for missing, stale or (after quarantining, counted
    as ``partition.corrupt``) corrupt stores.
    """
    if not os.path.isdir(path):
        return None
    try:
        return PartitionStore.open(path, expect_fingerprint)
    except StaleStoreError:
        return None
    except CorruptStoreError:
        quarantine_dir(path, counter="partition.corrupt")
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
        self._global_written = False
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
        path = os.path.join(self.stage, name)
        # Uncompressed container: members stay ZIP_STORED so the reader
        # can memory-map them in place.
        np.savez(path, **_members(full, SHARD_KEYS))
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
        np.savez(
            os.path.join(self.stage, GLOBAL_SHARD),
            **_members(tables, GLOBAL_KEYS),
        )
        self._global_written = True

    def finalize(self) -> str:
        """Checksum every staged file, write the manifest, publish."""
        if not self._global_written:
            raise RuntimeError("set_global() must run before finalize()")
        checksums = {GLOBAL_SHARD: sha256_file(
            os.path.join(self.stage, GLOBAL_SHARD))}
        for entry in self._months:
            checksums[entry["file"]] = sha256_file(
                os.path.join(self.stage, entry["file"]))
        manifest = {
            "version": PARTITION_FORMAT_VERSION,
            "months": self._months,
            "global": GLOBAL_SHARD,
            "checksums": checksums,
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
    This is the object-engine path into the partitioned cache format
    (the fastgen engine streams shards directly instead).
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
    for callers that already hold full-history tables (the object
    engine, migrations of v2 cache entries).  Returns the store path.
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
