"""Input files: the error contract, one block reader, CSV and the features codec.

Every public reader, and the subcommands that reach it:
  relabel.load_poses          relabel, profile; eval --query-poses/--map-poses (cli._poses_covering)
  relabel.load_labels         train --labels
  io.read_feature_records     train --features; inside read_features, file_descriptors and read_descriptors
  embed.read_features         none: a library reader
  embed.file_descriptors      eval --query-features/--map-features
  embed.load_model            eval --model
  retrieval.read_descriptors  eval --query-descriptors/--map-descriptors
  synth.load_ground_truth     eval --gt
  surf3d.load_point_cloud     overlap3d --cloud
  surf3d.load_poses_6dof      overlap3d --poses
  surf3d.load_intrinsics      overlap3d --intrinsics
``InputError`` is the one formatter of a path into a message, `<path>[:<line>]:
<message>`: ``file_reader``, which decorates each, raises it for a bad file, and
``cli`` for a file at odds with another file or an option. ``gvpr`` prints it as
one `error:` line before it exits 1.

``read_blocks`` parses records (CSV records, split cloud lines) in bulk, a
block at a time, by the reader's ``parse``, and rescans a failed block one
record at a time by the same ``parse``: each reader writes its record rule
once, and its error is the LineError of the file's first bad record. The
point cloud reaches it only when NumPy's C text reader does not take the
file (a bad line, a spelling that only ``float`` reads, an empty file).

Features file (little-endian; descriptor files have one location): magic
`GVPR`, version u32, count u32, channels u32, locations u32, then per record
u16 id byte length, UTF-8 id and channels*locations float32 values, read in
one pass into one float32 array, with ids and values checked once per file:
``gvpr train`` and ``embed.file_descriptors`` pool it a block of records at
a time, ``embed.read_features`` and ``retrieval.read_descriptors`` widen it.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import struct

import numpy as np

FEATURES_MAGIC = b"GVPR"
FORMAT_VERSION = 1

_CSV_BLOCK = 1024  # records read at a time: a whole file's row lists would stay in RSS after use
_FEATURE_BLOCK_BYTES = 1 << 20  # float32 values cast and written at a time: a whole-array copy is half its size


class LineError(ValueError):
    """A malformed line of an input file: the message, without the path, and the line number."""

    def __init__(self, line: int, message):
        super().__init__(message)
        self.line = line


class InputError(ValueError):
    """`<path>: <message>`, or `<path>:<line>: <message>` for a LineError: the only code that
    writes a file's location into an error message."""

    def __init__(self, path, error):
        line = getattr(error, "line", None)
        super().__init__(f"{path}: {error}" if line is None else f"{path}:{line}: {error}")


def file_reader(read):
    """Decorate a reader whose first argument is a file path: each ValueError it raises (a LineError,
    bad UTF-8, a rejected record) or csv.Error leaves it as an InputError naming the path."""
    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except InputError:
            raise
        except (ValueError, csv.Error) as e:
            raise InputError(path, e) from None
    return reader


def text_lines(path):
    """Lines of a UTF-8 text file, endings kept; bad UTF-8 is a UnicodeDecodeError (a ValueError)."""
    with open(path, encoding="utf-8", newline="") as fh:
        yield from fh


def floats(fields, message: str) -> np.ndarray:
    """The float64 run of ``float`` of each field; a non-numeric field is ``ValueError(message)``."""
    try:
        return np.fromiter(map(float, fields), np.float64)
    except ValueError:
        raise ValueError(message) from None


def read_blocks(blocks, width: int, parse, first: int, noun: str) -> list:
    """``parse(records)`` of the nonblank records (lists of fields) of each block, in order.

    Records are numbered from ``first``, blank ones too. When a block holds a record of neither 0
    nor ``width`` fields, or ``parse`` raises a ValueError, ``parse([record])`` runs on each of its
    records in turn: the first with a wrong count (``expected <width> <noun>, got <n>``) or a
    ValueError raises as its LineError. If none does, ``parse``'s error stands. State ``parse``
    keeps across calls (ids seen) must be left unchanged by a call that raises. An error of reading
    a block (bad UTF-8, a csv.Error) comes before any bad record in that block.
    """
    out = []
    for records in blocks:
        try:
            if not set(map(len, records)) <= {0, width}:
                raise ValueError("wrong field count")
            out.append(parse(list(filter(None, records))))
        except ValueError:
            for lineno, record in enumerate(records, start=first):
                if not record:
                    continue
                if len(record) != width:
                    raise LineError(lineno, f"expected {width} {noun}, got {len(record)}") from None
                try:
                    parse([record])
                except ValueError as e:
                    raise LineError(lineno, e) from None
            raise
        first += len(records)
    return out


def read_csv(path, header: list, parse) -> list:
    """``read_blocks`` over blocks of ``_CSV_BLOCK`` records of a UTF-8 CSV with ``header``, numbered
    from 2 (the header is record 1). A wrong header is a ValueError."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"expected header {','.join(header)}")
        blocks = iter(lambda: list(itertools.islice(reader, _CSV_BLOCK)), [])
        return read_blocks(blocks, len(header), parse, 2, "fields")


def write_csv(path, header: list, rows, lineterminator: str = "\r\n") -> None:
    """Write a UTF-8 CSV: the header, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated file while reading {what}")
    return buf


def read_header(fh, magic: bytes, kind: str, fmt: str) -> list:
    """Check a binary file's magic and version; returns the other header fields."""
    got = read_exact(fh, 4, "magic")
    if got != magic:
        raise ValueError(f"not a {kind} file (bad magic {got!r})")
    version, *fields = struct.unpack(fmt, read_exact(fh, 16, "header"))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    if not all(f > 0 for f in fields):  # also rejects a NaN gem_p
        raise ValueError(f"{kind} header fields must be positive, got {fields}")
    return fields


def check_size(fh, need: int) -> None:
    """Reject a header that implies more bytes than the file holds, before reading them."""
    size = os.fstat(fh.fileno()).st_size
    if need > size:
        raise ValueError(f"truncated file: header implies {need} bytes or more, has {size}")


def write_feature_array(path, ids, values: np.ndarray) -> None:
    """Write ids and their values, (count, channels, locations), as a features file in order:
    the mirror of ``read_feature_records``, refusing the empty sizes and ids that it rejects."""
    if not len(ids):
        raise ValueError("no feature maps to write")
    if 0 in values.shape:
        raise ValueError(f"feature map must be (channels, locations), got {values.shape[1:]}")
    if "" in ids:
        raise ValueError("feature map id must be nonempty")
    raw_ids = [ident.encode("utf-8") for ident in ids]
    for ident, raw in zip(ids, raw_ids):  # before the file is opened, so a bad id leaves no file behind
        if len(raw) > 0xFFFF:
            raise ValueError(f"id too long to serialize: {ident!r}")
    per_block = max(1, _FEATURE_BLOCK_BYTES // (4 * values[0].size))
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC + struct.pack("<IIII", FORMAT_VERSION, *values.shape))
        for lo in range(0, len(raw_ids), per_block):
            records = zip(raw_ids[lo:lo + per_block], values[lo:lo + per_block].astype("<f4"))
            fh.write(b"".join(struct.pack("<H", len(raw)) + raw + record.tobytes() for raw, record in records))


@file_reader
def read_feature_records(path) -> tuple:
    """Ids and float32 values, (count, channels, locations), of a features file.

    A repeated id fails as it is read; empty ids and non-finite values are
    checked once for the whole file.
    """
    with open(path, "rb") as fh:
        count, channels, locations = read_header(fh, FEATURES_MAGIC, "features", "<IIII")
        record_bytes = 4 * channels * locations
        check_size(fh, 20 + count * (2 + record_bytes))
        raw = np.empty(count * record_bytes, dtype=np.uint8)
        ids, seen = [], set()
        for lo in range(0, len(raw), record_bytes):
            (id_len,) = struct.unpack("<H", read_exact(fh, 2, "id length"))
            ident = read_exact(fh, id_len, "id").decode("utf-8")
            if ident in seen:
                raise ValueError(f"duplicate feature id {ident!r}")
            seen.add(ident)
            if fh.readinto(memoryview(raw[lo:lo + record_bytes])) != record_bytes:
                raise ValueError(f"truncated file while reading values of {ident!r}")
            ids.append(ident)
        if fh.read(1):
            raise ValueError(f"trailing bytes after {count} records")
    if "" in ids:
        raise ValueError("feature map id must be nonempty")
    values = raw.view("<f4").reshape(count, channels, locations)
    if not np.isfinite(values).all():  # on the float32 values, so a signalling NaN is never widened with a warning
        raise ValueError("feature values must be finite")
    return ids, values
