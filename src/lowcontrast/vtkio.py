"""Text I/O: legacy ASCII VTK for meshes and nodal scalar fields, the CSV
tables (field values, optimizer history, remainder reports), and the
whole-block number parser the MSH and field CSV readers share.

Floats are written with 17 significant digits, so identical inputs produce
byte-identical files.  Every row of a table follows one template of literal
text and ``%.17g``/``%d`` conversions.  A table of fewer than 64 rows is
written by the ``%`` operator itself, whose fixed cost is lower; the row
kernel (:func:`_kernel_rows`) renders a longer one in numpy passes, never
through a Python string per value.  A block of at most
2048 rows becomes one (rows, width) byte matrix with a fixed unit of slots
per conversion; a slot left 0 holds no byte, so the zeros are dropped and
the rest is written.  The bytes are exactly those of the ``%`` operator:

* ``%.17g`` takes k = ⌊log10|x|⌋ and the 17-digit integer N nearest to
  |x|·10^(16−k).  The product is exact as a double-double: Dekker's
  two-product (1971) of |x| with the high part of a table of 10^p, built
  from Python integers, plus |x| times its low part, as in Adams'
  table-driven fixed-precision printing (Ryū printf, 2019).  Its error is
  below 1e-14, so N is proven unless the fraction lies within 1e-9 of ½.  k
  is corrected where ⌊|x|·10^(16−k)⌋ leaves [10^16, 10^17), the digits come
  from a 4-digit lookup table, and the ``%g`` layout follows: fixed notation
  for −4 ≤ k < 17, else ``e±XX``, with trailing zeros dropped.
* ``%d`` writes 4-digit groups of the magnitude, as many as the run's
  largest value needs, and blanks the leading zeros.

Only values whose digits are not proven this way -- nan, ±inf, |x| outside
[1e-280, 1e280], and fractions that near ½ (exact ties) -- are formatted
one at a time by ``"%.17g" % x`` (:func:`_fallback`).
"""
from __future__ import annotations

import csv
import functools
import re
import warnings

import numpy as np

_NUMBER = b"0123456789+-.eE"
_CONVERSION = re.compile(r"(%\.17g|%d)")
_BLOCK_ROWS = 2048  # rows per block, fewer where rows are wide, so that
_BLOCK_BYTES = 120_000  # each block's temporaries stay under glibc's 128 KiB mmap threshold
# tables of fewer rows are written through `%`.  The kernel's fixed work is about
# 0.1 ms a call, and `%` overtakes it at 40-80 rows of four to six "%.17g" columns
# (160-320 rows of one or two); a command that writes only such tables never
# builds the kernel's lookup tables nor faults in the numpy loops it runs
_PERCENT_ROWS = 64
_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280  # Dekker's splits neither overflow nor lose bits here
_TIE = 1e-9  # fraction of |x|·10^(16−k) this near ½: left to the fallback
_K0 = 282  # tables indexed by the exponent k run over k + _K0 for |k| ≤ _K0
_G_SLOTS = 45  # the slots of a "%.17g" unit; the literal text after it follows
# Text is assembled in little-endian uint64 words: byte j of a word is byte j
# of the text, so a mask of the low c bytes keeps the first c characters.
_U8 = np.dtype("<u8")
_U32 = np.dtype("<u4")
_POINT = np.uint64(ord(".") << 8)  # byte 1 of the "0." word


def _u64(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _split(a):
    """Dekker's split: a = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


class _Tables:
    """Lookup tables of the row kernel, built on first use (a few ms), not at import."""

    def __init__(self):
        # The quad tables are built by slice assignments only: each ufunc loop a
        # process runs for the first time faults in about 64 KB of numpy's code,
        # which adds to its peak RSS.  Axes 0-3 of a (10, 10, 10, 10) table are
        # the digits of the quad q.
        text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
        digits = np.frombuffer(b"0123456789", dtype=np.uint8)
        for j in range(4):
            text[..., j] = digits.reshape([10 if i == j else 1 for i in range(4)])
        lead = text.copy()
        lead[0, ..., 0] = lead[0, 0, ..., 1] = lead[0, 0, 0, :, 2] = lead[0, 0, 0, 0, 3] = 0
        last = lead.copy()
        last[0, 0, 0, 0, 3] = ord("0")
        # the quads "0000" … "9999" as words of 4 ASCII bytes; with leading zeros
        # blanked (quad_lead, empty for 0), and the same with "0" for 0 (quad_last)
        words = (t.reshape(-1, 4).view(_U32)[:, 0] for t in (text, lead, last))
        self.quad, self.quad_lead, self.quad_last = words
        # the 17 digits of N are d0 and the words W1 (digits 1-8) and W2 (9-16);
        # end[g][q] is 1 + the position of the last nonzero digit of quad q as
        # the g-th quad of W1 W2, or 1 if q = 0
        self.end = []
        for g in range(4):
            end = np.full((10, 10, 10, 10), 5 + 4 * g, dtype=np.int8)
            end[..., 0], end[..., 0, 0], end[:, 0, 0, 0], end[0, 0, 0, 0] = 4 + 4 * g, 3 + 4 * g, 2 + 4 * g, 1
            self.end.append(end.reshape(10000))
        # m1[i]/m2[i] keep the digits of W1/W2 at positions below i
        low = np.array([(1 << 8 * c) - 1 for c in range(9)], dtype=_U8)
        self.m1 = low[[min(max(i - 1, 0), 8) for i in range(18)]]
        self.m2 = low[[min(max(i - 9, 0), 8) for i in range(18)]]
        self.digit_hi = np.array([(ord("0") + d) << 40 for d in range(10)], dtype=_U8)  # byte 5

        # per exponent k: 10^(16−k) = p10 + p10_lo as a double-double, from
        # correctly rounded Python integer arithmetic, and p10 split by Dekker
        hi, lo = [], []
        for p in range(16 + _K0, 15 - _K0, -1):
            if p >= 0:
                h = float(10**p)
                lo.append(float(10**p - int(h)))
            else:
                h = 1 / 10**-p  # int true division rounds correctly
                n, d = h.as_integer_ratio()
                lo.append((d - n * 10**-p) / (d * 10**-p))  # 10^p − h, correctly rounded
            hi.append(h)
        self.p10, self.p10_lo = np.array(hi), np.array(lo)
        self.p10_hh, self.p10_hl = _split(self.p10)
        # per exponent k: the digits before the point, the "0.000" word of
        # −4 ≤ k < 0, and the "e±XX" word of exponent notation (k < −4 or k ≥ 17)
        k = range(-_K0, _K0 + 1)
        self.before = np.array([k + 1 if 0 <= k < 17 else 0 if -4 <= k < 0 else 1 for k in k])
        self.lead_word = np.array([_u64(b"0." + b"0" * (-k - 1)) if -4 <= k < 0 else 0 for k in k], dtype=_U8)
        self.exp_word = np.array([0 if -4 <= k < 17 else _u64(b"e%+03d" % k) for k in k], dtype=_U8)


_tables = functools.cache(_Tables)


def _scaled(tab, a, k):
    """a·10^(16−k) (k offset by _K0) as an int64 part plus a remainder t, |t| < 32, off by under 1e-14."""
    prod = a * tab.p10[k]
    ah, al = _split(a)
    hh, hl = tab.p10_hh[k], tab.p10_hl[k]
    # a·h − prod exactly (Dekker's two-product), plus a times the table's low part
    return prod.astype(np.int64), ((ah * hh - prod) + ah * hl + al * hh) + al * hl + a * tab.p10_lo[k]


def _word(out, at):
    """The little-endian uint64 slots of ``out`` (… × bytes) that start at byte ``at``."""
    return out[..., at : at + 8].view(_U8)[..., 0]


def _put_g17(out, x, suffix) -> None:
    """Fill the (rows, m, ≥ 48) slots ``out`` with the bytes of ``"%.17g" % v`` for every v of x (rows, m).

    The slots are: 0 the sign; 1 d0 and 2-17 the words W1, W2 when digits
    stand before the point; 18-23 "0." with up to 3 zeros (−4 ≤ k < 0), or
    the point alone at 19, and d0 at 23 when it stands after the point;
    24-39 W1, W2 after the point; 40-44 "e±XXX".  ``suffix`` holds, per
    column, the word of up to 3 literal bytes that follow the number, at 45-47.
    """
    tab = _tables()
    a = np.abs(x)
    zero = a == 0
    exact = (a >= _EXACT_MIN) & (a <= _EXACT_MAX)
    a = np.where(exact, a, 1.0)  # zeros become "1", then "0"; the fallback rewrites the rest
    k = (np.floor(np.log10(a)) + _K0).astype(np.intp)
    base, t = _scaled(tab, a, k)
    # ⌊a·10^(16−k)⌋ outside [10^16, 10^17): log10 missed the decade.  Where the
    # product lies within rounding of either end, both decades give the same text.
    floor = base + np.floor(t).astype(np.int64)
    off = np.nonzero((floor < 10**16) | (floor >= 10**17))
    if off[0].size:
        k[off] += np.where(floor[off] >= 10**17, 1, -1)
        base[off], t[off] = _scaled(tab, a[off], k[off])
    r = np.floor(t + 0.5)
    n = base + r.astype(np.int64)
    up = n == 10**17  # rounded up into the next decade: "%e" then raises the exponent
    k += up
    n -= up * (9 * 10**16)
    slow = (np.abs(t - r) > 0.5 - _TIE) | ~(exact | zero) | (n < 10**16)
    n[slow] = 10**16

    d0 = n // 10**16
    rest = n - d0 * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    qa = hi8 // 10000
    qb = hi8 - qa * 10000
    qc = lo8 // 10000
    qd = lo8 - qc * 10000
    w1 = np.stack([tab.quad[qa], tab.quad[qb]], axis=-1).view(_U8)[..., 0]
    w2 = np.stack([tab.quad[qc], tab.quad[qd]], axis=-1).view(_U8)[..., 0]
    ends = tab.end
    end = np.maximum(np.maximum(ends[0][qa], ends[1][qb]), np.maximum(ends[2][qc], ends[3][qd]))
    end = end.astype(np.intp)
    # digits 0 … before−1 go before the point, before … end−1 after it
    before = tab.before[k]
    m1, m2 = tab.m1[before], tab.m2[before]
    out[..., 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    out[..., 1] = (before > 0) * (d0 + ord("0") - zero)
    _word(out, 2)[...] = w1 & m1
    _word(out, 10)[...] = w2 & m2
    _word(out, 18)[...] = tab.lead_word[k] | (end > before) * _POINT | (before == 0) * tab.digit_hi[d0]
    _word(out, 24)[...] = w1 & tab.m1[end] & ~m1
    _word(out, 32)[...] = w2 & tab.m2[end] & ~m2
    _word(out, 40)[...] = tab.exp_word[k] | suffix
    if slow.any():
        _fallback(out, x, slow)


def _fallback(out, x, slow) -> None:
    """Rewrite the number slots of every value of x that ``slow`` marks with ``"%.17g" % v``."""
    for i, j in zip(*np.nonzero(slow)):
        text = ("%.17g" % x[i, j]).encode()
        out[i, j, :_G_SLOTS] = 0
        out[i, j, : len(text)] = np.frombuffer(text, dtype=np.uint8)


def _put_d(out, v, signed: bool) -> None:
    """Fill the (rows, m, signed + 4·groups) slots ``out`` with ``"%d" % x`` for every x of v (rows, m)."""
    tab = _tables()
    if signed:
        neg = v < 0
        out[..., 0] = neg.view(np.uint8) * np.uint8(ord("-"))
        out = out[..., 1:]
        v = np.where(neg, -v, v)  # -(-2**63) wraps to itself, read as 2**63 below
    v = v.view(np.uint64)
    words = out.view(_U32)
    groups = words.shape[-1]
    for g in range(groups):
        if g < groups - 1:
            scale = np.uint64(10 ** (4 * (groups - 1 - g)))
            q = v // scale
            v = v - q * scale
            q = q.view(np.int64)
        else:
            q = v.view(np.int64)
        # a zero group is blank until the number has started, but the last group of 0 is "0"
        table = tab.quad_last if g == groups - 1 else tab.quad_lead
        words[..., g] = table[q] if not g else np.where(started, tab.quad[q], table[q])
        started = q > 0 if not g else started | (q > 0)


def _column(spec: str, c) -> np.ndarray:
    """Column c as the row kernel reads it for the conversion ``spec``: int64 or uint64, or float."""
    if spec == "%d":
        c = np.asarray(c)
        return c if c.dtype == np.uint64 else c.astype(np.int64, copy=False)
    return np.asarray(c, dtype=float)


def _write_rows(fh, row: str, columns) -> None:
    """Write ``row % (c[i] for c in columns)`` for every row i, as bytes.

    ``row`` is literal text and one ``%.17g`` or ``%d`` conversion per column;
    ``%d`` columns hold integers.  A table of fewer than _PERCENT_ROWS rows is
    formatted by the ``%`` operator itself, on the columns as the kernel reads
    them (:func:`_column`), so its bytes are the kernel's; a longer one by the
    row kernel (:func:`_kernel_rows`).
    """
    if len(columns) and len(columns[0]) >= _PERCENT_ROWS:
        _kernel_rows(fh, row, columns)
        return
    columns = [_column(spec, c).tolist() for spec, c in zip(_CONVERSION.findall(row), columns)]
    fh.write("".join(row % values for values in zip(*columns)).encode())


def _kernel_rows(fh, row: str, columns) -> None:
    """:func:`_write_rows` in numpy passes, a block at a time: the row kernel.

    Each conversion owns a unit of slots that ends in the literal text after
    it.  Neighbouring conversions of one kind whose units have one width form
    a run, formatted by one kernel call on a (rows, m) stack of their columns.
    """
    pieces = _CONVERSION.split(row)
    runs, width = [], len(pieces[0])
    for spec, c, text in zip(pieces[1::2], columns, pieces[2::2]):
        text = text.encode()
        c = _column(spec, c)
        key = (spec, len(text), c.dtype) if spec == "%d" else (spec, max(len(text), 3), None)
        if runs and runs[-1][0] == key:
            runs[-1][1].append(c)
            runs[-1][2].append(text)
        else:
            runs.append((key, [c], [text]))
    layout = []
    for (spec, tail, _), cols, texts in runs:
        if spec == "%d":
            lo = min((int(c.min()) for c in cols if c.size), default=0)
            hi = max((int(c.max()) for c in cols if c.size), default=0)
            signed = lo < 0  # a sign slot
            slots = signed + 4 * -(-len(str(max(-lo, hi))) // 4)  # 4-digit groups
        else:
            signed, slots = None, _G_SLOTS
        layout.append((width, cols, texts, signed, slots, slots + tail))
        width += len(cols) * (slots + tail)

    rows = len(columns[0]) if len(columns) else 0
    block_rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // width))
    block = np.zeros((min(rows, block_rows), width), dtype=np.uint8)
    block[:, : len(pieces[0])] = np.frombuffer(pieces[0].encode(), dtype=np.uint8)
    units = []
    for at, cols, texts, signed, slots, unit in layout:
        region = block[:, at : at + len(cols) * unit].reshape(len(block), len(cols), unit)
        for j, text in enumerate(texts):
            region[:, j, slots : slots + len(text)] = np.frombuffer(text, dtype=np.uint8)
        # the first 3 bytes of each text, as the bytes after the exponent in the word at 40
        suffix = np.array([_u64(b"\0" * (_G_SLOTS - 40) + t[:3]) for t in texts], dtype=_U8)
        units.append((region, cols, signed, slots, suffix))
    for start in range(0, rows, block_rows):
        stop = min(start + block_rows, rows)
        for region, cols, signed, slots, suffix in units:
            x = np.stack([c[start:stop] for c in cols], axis=1)
            if signed is None:
                _put_g17(region[: stop - start], x, suffix)
            else:
                _put_d(region[: stop - start, :, :slots], x, signed)
        flat = block[: stop - start].ravel()
        fh.write(flat[flat != 0])


def export_vtk(mesh, fields: dict, path) -> None:
    """Write an UNSTRUCTURED_GRID file with one SCALARS block per field.

    ``fields`` maps names to nodal arrays; insertion order is preserved.
    A name is one token of the format: non-empty, without whitespace.
    Every value must be finite.
    """
    for name, values in fields.items():
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"field name '{name}' must be non-empty and hold no whitespace")
        v = np.asarray(values, dtype=float)
        if v.shape != (mesh.n_nodes,):
            raise ValueError(f"field '{name}' is not a nodal array")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"field '{name}' has the non-finite value {v[bad[0]]} at node {bad[0]}")

    with open(path, "wb") as fh:
        fh.write(
            "# vtk DataFile Version 3.0\nlowcontrast output\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n".encode()
        )
        _write_rows(fh, "%.17g %.17g 0\n", mesh.node_coords.T)
        fh.write(f"CELLS {mesh.n_elems} {4 * mesh.n_elems}\n".encode())
        _write_rows(fh, "3 %d %d %d\n", mesh.triangles.T)
        fh.write(f"CELL_TYPES {mesh.n_elems}\n".encode() + b"5\n" * mesh.n_elems)
        if fields:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n".encode())
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode())
                _write_rows(fh, "%.17g\n", [values])


def write_csv(path, header, columns) -> None:
    """Write a header row, then row i with entry i of every column.

    Each column's format follows its dtype: integers as written, floats with
    17 significant digits.  Lines end in CRLF, as ``csv.writer`` ends them.
    """
    # a range as np.arange: np.asarray would first make a Python int per entry
    columns = [np.arange(c.start, c.stop, c.step) if isinstance(c, range) else np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns) + "\r\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        _write_rows(fh, row, columns)


def parse_rows(body: bytes, rows: int, width: int, sep: bytes) -> np.ndarray | None:
    """Parse ``rows`` lines of ``width`` decimal numbers joined by one ``sep``.

    Every line ends in a newline.  Column 0 holds integers: written without
    '.' or exponent and below 2**53 in magnitude, so the float array holds
    them exactly.  Returns the (rows, width) array, or None for any other
    text (padding, blank lines, extra tokens, nan, '1_0', a wrong count, a
    token longer than ``csv.field_size_limit()``, which csv.reader refuses):
    the caller's per-line reader, which defines the format, then reads it
    and names the offending line.
    """
    if rows < 1 or body.translate(None, _NUMBER + sep + b"\n") or not body.endswith(b"\n"):
        return None
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    seps = np.flatnonzero(buf == sep[0])
    if ends.size != rows or seps.size != rows * (width - 1):
        return None
    # token j of line i lies strictly between bounds[i, j] and bounds[i, j + 1]
    bounds = np.column_stack([np.r_[-1, ends[:-1]], seps.reshape(rows, width - 1), ends])
    gaps = np.diff(bounds, axis=1)  # token length + 1
    if (gaps < 2).any() or gaps.max() > csv.field_size_limit() + 1:
        return None
    del gaps  # held through the parse, it raised eval's peak RSS on a 45k-node disk by 11 MB
    fraction = np.flatnonzero((buf == ord(".")) | (buf == ord("e")) | (buf == ord("E")))
    if (fraction < bounds[np.searchsorted(ends, fraction), 1]).any():
        return None
    try:
        with warnings.catch_warnings():
            # older numpy warns instead of raising on text it cannot read to the end
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(body if sep == b" " else body.replace(sep, b" "), sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != rows * width:
        return None
    values = values.reshape(rows, width)
    if not (np.abs(values[:, 0]) < 2.0**53).all():
        return None
    return values
