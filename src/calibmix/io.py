"""Every file the package reads or writes, and the text it prints.

Input is UTF-8, with an optional byte-order mark (as spreadsheets write
it).  A path that cannot be read or written (missing, a directory, below a
regular file, no permission) and a byte that is not UTF-8 are DataErrors
that name the file, the latter with its row.  ``read_csv`` checks the
header row (row 1), skips a row whose cells are all blank, and converts
each header column of every other row, naming the row of any cell that is
blank or does not convert; columns past the header's are ignored.
``json_object`` checks that a decoded JSON value is an object with known
fields only, and ``merged`` lays flags over values read from a file,
noting each override on stderr.

Floats are written with full repr precision in both formats, so the JSON
and CSV outputs of one run carry identical numeric content.
"""

from __future__ import annotations

import csv
import io as _io
import json
import sys

from .errors import DataError


def read_text(path) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc.strerror or exc)) from exc
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError("%s: row %d: byte 0x%02x is not UTF-8" % (
            path, data.count(b"\n", 0, exc.start) + 1, data[exc.start])) from exc


def read_csv(path, **columns) -> list:
    """The data rows of the CSV at ``path`` as tuples, one entry per
    keyword: its name heads the column and its value converts the cell."""
    names = list(columns)
    reader = csv.reader(_io.StringIO(read_text(path), newline=""))
    rows = []
    try:
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:len(names)]] != names:
            raise DataError("row 1: expected header '%s', got %r"
                            % (",".join(names), header))
        for row, cells in enumerate(reader, start=2):
            cells = [c.strip() for c in cells] + [""] * len(names)
            if not any(cells):
                continue
            blank = [name for name, c in zip(names, cells) if not c]
            if blank:
                raise DataError("row %d: no value in column '%s'" % (row, blank[0]))
            try:
                rows.append(tuple(columns[n](c) for n, c in zip(names, cells)))
            except ValueError as exc:
                raise DataError("row %d: %s" % (row, exc)) from exc
    except csv.Error as exc:
        raise DataError("%s: row %d: %s" % (path, reader.line_num, exc)) from exc
    if not rows:
        raise DataError("row 2: no data rows found")
    return rows


def decode_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError("%s: %s" % (what, exc)) from exc


def json_object(value, what, allowed, fields=None) -> dict:
    """``value`` when it is a dict whose keys are all in ``allowed``; the
    errors name ``what``, and its keys as ``fields`` (default ``what``)."""
    if not isinstance(value, dict):
        raise DataError("%s must be a JSON object, not %s"
                        % (what, type(value).__name__))
    unknown = set(value) - set(allowed)
    if unknown:
        raise DataError("unknown %s fields: %s" % (fields or what, sorted(unknown)))
    return value


def merged(values, flags, source) -> dict:
    """``values`` read from ``source`` with every flag that is set (not
    None) laid over them; a flag that changes a value prints a note."""
    out = dict(values)
    for key, v in flags.items():
        if v is None:
            continue
        if key in out and out[key] != v:
            print("note: flag --%s=%r overrides %s value %r"
                  % (key.replace("_", "-"), v, source, out[key]), file=sys.stderr)
        out[key] = v
    return out


def format_cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def rows_to_csv_text(header, rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def payload_text(payload, fmt, table=None) -> str:
    """The payload as JSON, or as CSV: a ``# config:`` line plus ``table``
    (header, rows) when given, else the payload flattened to key,value
    rows."""
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if table is not None:
        return ("# config: %s\n" % json.dumps(payload["config"], sort_keys=True)
                + rows_to_csv_text(*table))
    rows = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, format_cell(obj)))

    walk("", payload)
    return rows_to_csv_text(("key", "value"), rows)


def write_text(path, text) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc.strerror or exc)) from exc
