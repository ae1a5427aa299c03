"""The one reader and writer of the plain-text files (collections, judgments,
splits, run files, vectors, configs and CSVs), the text counterpart of `_npz`.

Readers decode UTF-8 with universal newlines, and every error they raise
starts with `path: line N`. Callers pass their module's error class.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# values converted per numpy call: bounds the parser's transient strings
_BLOCK = 1 << 14


def read_lines(path, *, strip: bool = True, comments: bool = True,
               blank: bool = False, error: type[ValueError] = ValueError):
    """(line number, line) of each line, numbered from 1. `strip` drops
    surrounding whitespace, else only the newline; `comments` skips lines
    starting with '#'; `blank` keeps empty lines. An undecodable byte's
    line is looked for only once decoding fails."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip() if strip else line.rstrip("\n")
                if (line or blank) and not (comments and line.startswith("#")):
                    yield line_no, line
    except UnicodeDecodeError:
        # surrogateescape decodes each undecodable byte to U+DC80..U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            line_no = next((n for n, line in enumerate(fh, start=1)
                            if re.search("[\udc80-\udcff]", line)), 0)
        raise error(f"{path}: line {line_no}: not valid UTF-8") from None


def _json(text: str, path, line_no: int, error):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the digit limit
        line_no += getattr(exc, "lineno", 1) - 1
        raise error(f"{path}: line {line_no}: malformed JSON "
                    f"({getattr(exc, 'msg', exc)})") from None


def read_json(path, error: type[ValueError] = ValueError):
    """The JSON value a whole file holds."""
    lines = read_lines(path, strip=False, comments=False, blank=True, error=error)
    return _json("\n".join(line for _, line in lines), path, 1, error)


def read_json_number(path, key: str, check, rule: str):
    """The number of a JSON object with exactly the key `key`, which `check`
    must accept. Raises ValueError naming the file on any fault."""
    data = read_json(path)
    if not isinstance(data, dict) or set(data) != {key}:
        raise ValueError(f"{path}: expected a JSON object with exactly the key {key}")
    value = data[key]
    # `type`, not isinstance: JSON's true and false are no numbers
    if type(value) not in (int, float) or not check(value):
        raise ValueError(f"{path}: {key} must be {rule}, got {value!r}")
    return value


def read_jsonl(path, error: type[ValueError] = ValueError):
    """(line number, JSON value) of each non-empty line."""
    for line_no, line in read_lines(path, comments=False, error=error):
        yield line_no, _json(line, path, line_no, error)


def _line_bound(path) -> int:
    """At least the number of lines `read_lines` reads from the file: one
    more than its line breaks, counting a CR LF split between two chunks
    twice."""
    count = 1
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += chunk.count(b"\n")
            if b"\r" in chunk:  # universal newlines end a line at a lone CR too
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
    return count


def read_vectors(path, *, keys: int = 1, dim: int | None = None,
                 comments: bool = False, error: type[ValueError] = ValueError):
    """(key fields, line numbers, float64 matrix) of `key... v1 ... vdim`
    lines, `keys` fields per key. `dim` defaults to the first line's value
    count. Each value must be finite (read exactly as `float` reads it) and
    each row's norm too. The matrix is allocated once, with a row for each
    line of the file, and each block of lines is parsed into its rows; the
    rows no vector filled are cut off at the end."""
    names: list[list[str]] = []
    line_nos: list[int] = []
    tokens: list[str] = []
    matrix = None

    def flush():  # convert the pending lines, naming the first bad one
        if not tokens:
            return
        rows = line_nos[len(line_nos) - len(tokens) // dim:]
        try:
            block = np.array(tokens, dtype=np.float64).reshape(-1, dim)
        except ValueError:
            for line_no, start in zip(rows, range(0, len(tokens), dim)):
                try:
                    np.array(tokens[start:start + dim], dtype=np.float64)
                except ValueError:
                    raise error(f"{path}: line {line_no}: non-numeric value") from None
            raise
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.flatnonzero(~np.isfinite(np.linalg.norm(block, axis=1)))
        if len(bad):
            raise error(f"{path}: line {rows[bad[0]]}: non-finite value or norm")
        matrix[len(line_nos) - len(block):len(line_nos)] = block
        tokens.clear()

    for line_no, line in read_lines(path, comments=comments, error=error):
        parts = line.split()
        count = len(parts) - keys
        if count < 1 or count != (dim or count):
            flush()  # an earlier line's fault comes first
            raise error(f"{path}: line {line_no}: expected {dim or 'some'} vector "
                        f"values, got {max(count, 0)}")
        if matrix is None:
            matrix = np.empty((_line_bound(path), count))
        dim = count
        names.append(parts[:keys])
        line_nos.append(line_no)
        tokens += parts[keys:]
        if len(tokens) >= _BLOCK:
            flush()
    flush()
    if dim is None:
        raise error(f"{path}: no vectors")
    if matrix is None:  # a given dim, and no vector lines
        return names, line_nos, np.zeros((0, dim))
    matrix.resize((len(line_nos), dim), refcheck=False)
    return names, line_nos, matrix


def read_key_values(path, known, error: type[ValueError] = ValueError):
    """(line number, key, value) of each `key = value` line, both stripped.
    Every key must be in `known` and appear once."""
    seen: set[str] = set()
    for line_no, line in read_lines(path, error=error):
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise error(f"{path}: line {line_no}: expected key = value")
        if key not in known:
            raise error(f"{path}: line {line_no}: unknown key {key!r}")
        if key in seen:
            raise error(f"{path}: line {line_no}: duplicate key {key!r}")
        seen.add(key)
        yield line_no, key, value.strip()


def parse_number(raw: str, kind, where: str, error: type[ValueError] = ValueError):
    """`raw` as an int, or as a finite float; an error naming `where` if not."""
    try:
        value = kind(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise error(f"{where}: expected {what}, got {raw!r}")
    return value


def write_table(path, header: str | None, rows, comment: str = "") -> None:
    """Each line of `comment` after '# ', then the `header` line, if any, and
    each string `rows` yields as one line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in comment.splitlines())
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(f"{row}\n" for row in rows)
