"""Files: the input error contract, one block reader, one array CSV writer and the features codec.

Every public reader, and the subcommands that reach it:
  relabel.load_poses          relabel, profile; eval --query-poses/--map-poses (cli._poses_covering)
  relabel.load_labels         train --labels
  embed.file_pools            train --features; eval --query-features/--map-features (embed.file_descriptors)
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
block at a time, by the reader's ``parse``, rescans a failed block one
record at a time by the same ``parse``, and joins the blocks' columns: each
reader writes its record rule once, and its error is the LineError of the
file's first bad record. The point cloud reaches it only when NumPy's C text
reader does not take the file (a bad line, a spelling that only ``float``
reads, an empty file).

Every large CSV is written by ``write_table``, from arrays, with the bytes
``csv.writer`` would write for the same rows, and returns their count:
  relabel.save_labels         relabel, overlap3d --out (from LabelTable columns, or IoU pairs)
  synth.save_ground_truth     synth (gt.csv)
  cli.cmd_profile             profile --out, raw and binned
Ids are quoted by ``csv.writer`` once each, and psi, distances and degrees are
``f"{x:.6f}"`` from ``np.rint(x * 1e6)``, with Python's format where that
could differ. ``write_csv`` writes the small tables: poses, metrics, traces.

Features file (little-endian; descriptor files have one location): magic
`GVPR`, version u32, count u32, channels u32, locations u32, then per record
u16 id byte length, UTF-8 id and channels*locations float32 values. Every
features reader reads it through ``feature_blocks``, one pass of float32
blocks of at most ``_FEATURE_BLOCK_BYTES`` of values, with one record rule:
``embed.file_pools`` (``gvpr train`` and ``gvpr eval``) pools each block as
it is read, and ``read_feature_records`` joins the blocks into one array,
which ``embed.read_features`` and ``retrieval.read_descriptors`` widen. The
blocks' errors name the path only when a decorated reader drains them:
``file_reader`` wraps a call, not the iteration of a generator.
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
_TABLE_ROWS = 4096  # rows formatted at a time by write_table, fewer where ids are wide:
_TABLE_ID_BYTES = 1 << 18  # at most this many padded bytes of one id column
_FIXED_LIMIT = 2.0 ** 23  # values formatted by NumPy: 13 digits at most, products v * 1e6 below 2**43
_DIGITS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
           + ord("0")).astype(np.uint8).view(np.uint32).ravel()  # k as four ASCII digits; uint16 keeps the import small
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
_FEATURE_BLOCK_BYTES = 1 << 20  # float32 values read, or cast and written, at a time


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


def id_order(ids) -> np.ndarray:
    """The positions of ``ids`` in Python ``str`` order, as intp: the one order in which ids rank. NumPy's
    fixed-width strings drop trailing NULs (``np.array(["a", "a\\x00"])`` holds "a" twice), so no NumPy sort
    or ``np.unique`` of ids may stand in for it."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def read_blocks(blocks, width: int, parse, first: int, noun: str) -> tuple:
    """The columns (lists, arrays) of ``parse(records)`` of each block's nonblank records (lists of fields), joined.

    A file with no record gives ``parse([])``. Records are numbered from ``first``, blank ones too. When a
    block holds a record of neither 0 nor ``width`` fields, or ``parse`` raises a ValueError, ``parse([record])``
    runs on each of its records in turn: the first with a wrong count (``expected <width> <noun>, got <n>``)
    or a ValueError raises as its LineError. If none does, ``parse``'s error stands. State ``parse`` keeps
    across calls (ids seen) must be left unchanged by a call that raises. An error of reading a block (bad
    UTF-8, a csv.Error) comes before any bad record in that block.
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
    return tuple(list(itertools.chain.from_iterable(column)) if isinstance(column[0], list) else np.concatenate(column)
                 for column in zip(*(out or [parse([])])))


def read_csv(path, header: list, parse) -> tuple:
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


class _Lines(list):
    """A ``csv.writer`` target that keeps each line it is given."""

    write = list.append


def write_table(path, header: list, ids, blocks, lineterminator: str = "\r\n") -> int:
    """Write ``write_csv``'s UTF-8 CSV from arrays: the header, then each block's rows; returns their count.

    A block is a tuple of equal-length columns, one row per index. An integer column holds positions
    in ``ids``, and the row's field is that id; a float column's field is ``f"{x:.6f}"``. Each id is
    quoted once by ``csv.writer``. A run of at most ``_TABLE_ROWS`` rows is laid out as fixed-width records
    of padded fields, with a mask of the bytes to write: no object or index array per row or byte. Memory
    is the quoted ids, one (ids, widest) byte table, and one run of records, whatever the row count.
    """
    quoted, lengths = _quoted_ids(ids, lineterminator)
    step = max(1, min(_TABLE_ROWS, _TABLE_ID_BYTES // quoted.dtype.itemsize))
    head = _Lines()
    csv.writer(head, lineterminator=lineterminator).writerow(header)
    rows = 0
    with open(path, "wb") as fh:
        fh.write(head[0].encode("utf-8"))
        for block in blocks:
            if len(set(map(len, block))) > 1:
                raise ValueError(f"columns of unequal lengths {[len(column) for column in block]}")
            for lo in range(0, len(block[0]), step):
                fields = [_id_field(quoted, lengths, column[lo:lo + step]) if column.dtype.kind in "iu"
                          else _fixed_field(column[lo:lo + step]) for column in block]
                fh.write(_joined_rows(fields, lineterminator))
            rows += len(block[0])
    return rows


def _quoted_ids(ids, lineterminator: str) -> tuple:
    """Each id as ``csv.writer`` writes it in a row ending in ``lineterminator``, in UTF-8: one NUL-padded
    void item per id, and the byte length of each."""
    lines = _Lines()
    csv.writer(lines, lineterminator=lineterminator).writerows([ident, ""] for ident in ids)
    fields = [line[:-len(lineterminator) - 1].encode("utf-8") for line in lines]  # less the `,` of the empty field
    lengths = np.fromiter(map(len, fields), np.intp, len(fields))
    return np.array(fields, dtype=f"V{max(1, int(lengths.max(initial=0)))}"), lengths


def _id_field(quoted: np.ndarray, lengths: np.ndarray, codes: np.ndarray) -> tuple:
    """The quoted ids at ``codes``, and the mask of their bytes: void items of one width."""
    if len(codes) and not 0 <= codes.min() <= codes.max() < len(lengths):
        raise ValueError(f"id positions must be in [0, {len(lengths)}), got {codes.min()}..{codes.max()}")
    width = quoted.dtype.itemsize
    return quoted[codes], _void(np.arange(width) < lengths[codes][:, None])


def _fixed_field(x: np.ndarray) -> tuple:
    """``f"{v:.6f}"`` of each value, and the mask of its bytes: void items of one width.

    The digits are those of ``np.rint(v * 1e6)``, four at a time from ``_DIGITS``, whenever ``v`` lies
    in [0, ``_FIXED_LIMIT``) and the product lies farther from a half-way point than ``p * 2**-51``,
    twice its largest rounding error: the product and the exact decimal value of ``v`` then round
    alike. Python formats the rest: negative values (-0.0 too), values out of range or not finite,
    and values within that guard of a half-way point.
    """
    fast = ~np.signbit(x) & (x < _FIXED_LIMIT)  # NaN fails the bound
    p = np.where(fast, x, 0.0) * 1e6
    fast &= np.abs(p - np.floor(p) - 0.5) > p * 2.0 ** -51
    whole, frac = np.divmod(np.rint(p).astype(np.int64), 1_000_000)
    digits = np.searchsorted(_POWERS_OF_TEN, whole, side="right")  # of the whole part, less one
    groups = int(digits.max(initial=0)) // 4 + 1  # four-digit groups of the whole part
    quads = np.empty((len(x), groups + 2), dtype=np.uint32)  # each the bytes of four digits
    for k in range(groups - 1, -1, -1):
        whole, quads[:, k] = np.divmod(whole, 10_000)
    quads[:, groups], quads[:, groups + 1] = np.divmod(frac, 10_000)
    text = _DIGITS[quads].view(np.uint8).reshape(len(x), -1)
    text[:, 4 * groups + 1] = ord(".")  # "00ab" of the fraction's first two digits becomes "0.ab"
    keep = np.ones(text.shape, dtype=bool)
    keep[:, :4 * groups] = np.arange(4 * groups) >= 4 * groups - 1 - digits[:, None]  # no leading zeros
    keep[:, 4 * groups] = False
    slow = np.flatnonzero(~fast)
    if len(slow):
        written = [f"{v:.6f}".encode() for v in x[slow].tolist()]
        width = max(text.shape[1], *map(len, written))
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
        keep = np.pad(keep, ((0, 0), (0, width - keep.shape[1])))
        text[slow] = np.array(written, dtype=f"S{width}").view(np.uint8).reshape(len(slow), width)
        keep[slow] = np.arange(width) < np.fromiter(map(len, written), np.intp, len(slow))[:, None]
    return _void(text), _void(keep)


def _void(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D uint8 or bool array as void items."""
    return np.ascontiguousarray(a).view(f"V{a.shape[1]}").ravel()


def _joined_rows(fields: list, lineterminator: str) -> np.ndarray:
    """The bytes of the rows of ``fields``, (items, mask) pairs of one row count: the masked bytes of
    each row's fields, with `,` between them and ``lineterminator`` after them."""
    rows = len(fields[0][0])
    parts = [fields[0]]
    for field in fields[1:]:
        parts += [_constant(b",", rows), field]
    parts.append(_constant(lineterminator.encode(), rows))
    record = np.dtype([(f"f{k}", value.dtype) for k, (value, _) in enumerate(parts)])
    text, keep = np.empty(rows, record), np.empty(rows, record)
    for name, (value, mask) in zip(record.names, parts):
        text[name], keep[name] = value, mask
    return text.view(np.uint8)[keep.view(np.bool_)]


def _constant(data: bytes, rows: int) -> tuple:
    """A field of the same bytes in every row, all of them written."""
    return tuple(np.broadcast_to(np.array(b, dtype=f"V{len(data)}"), rows) for b in (data, b"\x01" * len(data)))


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
    """Write ids and their values, (count, channels, locations), as a features file in order: the mirror of
    ``feature_blocks``, refusing what it rejects before the file is opened, so that no file is left behind."""
    if not len(ids):
        raise ValueError("no feature maps to write")
    if 0 in values.shape:
        raise ValueError(f"feature map must be (channels, locations), got {values.shape[1:]}")
    if "" in ids:
        raise ValueError("feature map id must be nonempty")
    raw_ids, seen = [ident.encode("utf-8") for ident in ids], set()
    for ident, raw in zip(ids, raw_ids):
        if len(raw) > 0xFFFF:
            raise ValueError(f"id too long to serialize: {ident!r}")
        if ident in seen:
            raise ValueError(f"duplicate feature id {ident!r}")
        seen.add(ident)
    top = 2.0 ** 128 - 2.0 ** 103  # float32's largest value and half its last step: from here up, a cast is inf
    if not -top < float(values.min()) <= float(values.max()) < top:  # NaN fails too
        raise ValueError("feature values must be finite in float32")
    per_block = max(1, _FEATURE_BLOCK_BYTES // (4 * values[0].size))
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC + struct.pack("<IIII", FORMAT_VERSION, *values.shape))
        for lo in range(0, len(raw_ids), per_block):
            records = zip(raw_ids[lo:lo + per_block], values[lo:lo + per_block].astype("<f4"))
            fh.write(b"".join(struct.pack("<H", len(raw)) + raw + record.tobytes() for raw, record in records))


def feature_blocks(fh) -> tuple:
    """The (count, channels, locations) header of the features file open in ``fh``, and a generator of its
    records in order, as (ids, float32 values) blocks of at most ``_FEATURE_BLOCK_BYTES`` of values.

    Each block's values are a view of one buffer that the next block overwrites, and that holds the smaller of
    one block and the whole file. The record rule, in the order of its messages: a truncated id length, id or
    values, bad UTF-8 and a repeated id fail as they are read; after the last record, trailing bytes, then an
    empty id, then a non-finite value. A block is yielded before its values are known to be finite, so its
    reader must drain the generator before it trusts a block, and under ``file_reader``, so that the error
    names the path. The header's faults raise here, before any block.
    """
    count, channels, locations = read_header(fh, FEATURES_MAGIC, "features", "<IIII")
    record_bytes = 4 * channels * locations
    check_size(fh, 20 + count * (2 + record_bytes))
    return (count, channels, locations), _blocks(fh, count, channels, locations)


def _blocks(fh, count: int, channels: int, locations: int):
    per_block = min(count, max(1, _FEATURE_BLOCK_BYTES // (4 * channels * locations)))
    buffer = np.empty((per_block, channels, locations), dtype="<f4")
    raw = buffer.reshape(per_block, -1).view(np.uint8)
    seen, finite = set(), True
    for lo in range(0, count, per_block):
        ids = []
        for record in map(memoryview, raw[:min(per_block, count - lo)]):
            (id_len,) = struct.unpack("<H", read_exact(fh, 2, "id length"))
            ident = read_exact(fh, id_len, "id").decode("utf-8")
            if ident in seen:
                raise ValueError(f"duplicate feature id {ident!r}")
            seen.add(ident)
            if fh.readinto(record) != record.nbytes:
                raise ValueError(f"truncated file while reading values of {ident!r}")
            ids.append(ident)
        values = buffer[:len(ids)]
        finite = finite and bool(np.isfinite(values).all())  # on float32: a signalling NaN is never widened
        yield ids, values
    if fh.read(1):
        raise ValueError(f"trailing bytes after {count} records")
    if "" in seen:
        raise ValueError("feature map id must be nonempty")
    if not finite:
        raise ValueError("feature values must be finite")


def read_feature_records(path) -> tuple:
    """Ids and float32 values, (count, channels, locations), of a features file: its blocks, joined.
    Its callers are decorated readers, which put the path in its errors."""
    with open(path, "rb") as fh:
        shape, blocks = feature_blocks(fh)
        ids, values = [], np.empty(shape, dtype="<f4")
        for block_ids, block in blocks:
            values[len(ids):len(ids) + len(block_ids)] = block
            ids += block_ids
    return ids, values
