"""The one output path: how numbers are rendered and files put on disk.

`cells` renders each number once, as the repr of its value; `csv_text` and
`json_text` lay those cells out, and `write_files` stages every text before it
replaces any file.  Every command writes through these, so identical inputs
give byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = ["Cells", "cells", "csv_text", "json_text", "write_files"]


class Cells(tuple):
    """Numbers as text, each the repr of its value: rendered once, then shared by
    every file that writes them.  `finite` is False if one is NaN or +-inf."""

    __slots__ = ()
    finite = property(frozenset({"nan", "inf", "-inf"}).isdisjoint)  # no non-finite repr


def cells(values) -> Cells:
    """Each value's repr over `.tolist()`: floats round-trip exactly, ints stay ints."""
    return Cells(map(repr, np.asarray(values).tolist()))


def csv_text(header: str, columns: Sequence, comments: Sequence[str] = ()) -> str:
    """CSV text: a '# ' line per comment, the header, then one row per index.

    Every number is the repr of its value, as `cells` renders it; a column
    given as `Cells` is written as it is.
    """
    rows = map(",".join, zip(*(c if isinstance(c, Cells) else cells(c) for c in columns)))
    return "\n".join([*(f"# {c}" for c in comments), header, *rows]) + "\n"


def json_text(doc) -> str:
    """What json.dumps writes for `doc` with an indent of 2, sorted keys and no NaN,
    plus a newline, a `Cells` standing for the list of its numbers: 2-space indented,
    key-sorted, ASCII-escaped RFC 8259 JSON; every number is its repr; NaN and
    +-inf raise ValueError.  Each list or object is one C-encoder call."""
    return _json(doc, "\n") + "\n"


def _json(doc, indent: str) -> str:
    inner = indent + "  "
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        return json.dumps(doc, allow_nan=False)
    if isinstance(doc, Cells):
        if not doc.finite:
            raise ValueError("Out of range float values are not JSON compliant")
        items = doc
    elif not any(issubclass(t, (dict, list, tuple))
                 for t in set(map(type, doc.values() if isinstance(doc, dict) else doc))):
        seps = ("," + inner, ": ")  # a flat container: one call, its brackets cut off
        items = [json.dumps(doc, sort_keys=True, allow_nan=False, separators=seps)[1:-1]]
    else:  # one call writes every key and scalar, a line each, as json escapes a
        # newline inside a string; each nested container, written as 0, is then rendered
        keys, values = zip(*sorted(doc.items())) if isinstance(doc, dict) else (None, doc)
        stub = [0 if isinstance(v, (dict, list, tuple)) else v for v in values]
        lines = json.dumps(stub if keys is None else dict(zip(keys, stub)),
                           allow_nan=False, separators=("\n", ": "))[1:-1].split("\n")
        items = [line[:-1] + _json(v, inner) if isinstance(v, (dict, list, tuple)) else line
                 for line, v in zip(lines, values)]
    brackets = "{}" if isinstance(doc, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def write_files(files: Mapping[Path, str]) -> None:
    """Write each text to its path, making missing parent directories.

    Every text is first staged in a fresh temp file beside its target, opened
    exclusively under a random name (mode 0666 minus the umask); only then is
    each renamed over its target.  Nothing is replaced until all is rendered and
    staged; no temp file, nor any directory it made and left empty, outlives it.
    """
    staged: dict[Path, Path] = {}
    made: list[Path] = []  # in the order made, so each comes after its parent
    try:
        for path, text in files.items():
            if path.is_dir():  # refused here rather than half-way through the renames
                raise IsADirectoryError(f"{path} is a directory")
            if not path.parent.is_dir():
                made += reversed([d for d in path.parents if not d.exists()])
                path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            try:
                fh = open(tmp, "x", encoding="utf-8")
            except OSError as exc:  # name the target, not the random temp file
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
            with fh:
                staged[tmp] = path
                fh.write(text)
        for tmp, path in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        for d in reversed(made):
            with contextlib.suppress(OSError):  # not empty, or never made
                d.rmdir()
