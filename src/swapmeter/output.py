"""Deterministic file emission with provenance headers.

CSV outputs carry a leading '#' comment line with toolkit version and
config hash; ingestion skips such lines. JSON outputs carry the same
provenance inside a "meta" object because JSON has no comments.

Every file is written whole or not at all: it is written to a uniquely
named temporary file next to it and renamed into place, so an error
while its rows are produced leaves any earlier file untouched, and no
directory made for it.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import takewhile
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import swapmeter


def provenance(config_hash: str) -> str:
    return f"swapmeter={swapmeter.__version__} config={config_hash}"


@contextmanager
def _replacing(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """A text file that replaces `path` when the block ends without error.

    On any error the temporary file is removed, `path` is left as it was,
    and each directory made for it is removed again if it is empty.
    """
    path = Path(path)
    made = list(takewhile(lambda d: not d.is_dir(), (path.parent, *path.parent.parents)))
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8", newline=newline)
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except BaseException:
        for directory in made:  # deepest first
            try:
                directory.rmdir()
            except OSError:
                break
        raise


def write_csv(
    path: str | Path,
    columns: Sequence[str],
    rows: Iterable[Sequence[str]],
    comment: str | None = None,
) -> None:
    with _replacing(path, newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path: str | Path, payload: dict, comment: str | None = None) -> None:
    if comment:
        payload = {"meta": comment, **payload}
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)
