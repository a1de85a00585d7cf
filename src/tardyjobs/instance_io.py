"""Reading and writing instances as JSON or CSV.

JSON: ``{"jobs": [{"p": int, "w": int, "d": int}, ...]}``; job ids are
implicit by position (0-based).  CSV: header ``p,w,d``, one job per row,
same implicit ids.  Both formats round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import IO

from .core import Instance, Job

__all__ = [
    "parse_instance",
    "parse_instance_json",
    "parse_instance_csv",
    "serialize_instance",
]


def _positive_int(value, what: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            ivalue = int(str(value))
        except (TypeError, ValueError):
            raise ValueError(f"{where}: {what} must be a positive integer, got {value!r}") from None
    else:
        ivalue = value
    if ivalue < 1:
        raise ValueError(f"{where}: {what} must be a positive integer, got {value!r}")
    return ivalue


def parse_instance_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "jobs" not in doc:
        raise ValueError('JSON instance must be an object with a "jobs" array')
    raw_jobs = doc["jobs"]
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ValueError('"jobs" must be a non-empty array')
    jobs = []
    for i, item in enumerate(raw_jobs):
        where = f"jobs[{i}]"
        if not isinstance(item, dict):
            raise ValueError(f"{where}: expected an object with p, w, d")
        for field in ("p", "w", "d"):
            if field not in item:
                raise ValueError(f"{where}: missing field {field!r}")
        jobs.append(
            Job(
                id=i,
                p=_positive_int(item["p"], "p", where),
                w=_positive_int(item["w"], "w", where),
                d=_positive_int(item["d"], "d", where),
            )
        )
    return Instance(tuple(jobs))


def parse_instance_csv(text: str) -> Instance:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError("empty file")
    header = [c.strip().lower() for c in rows[0]]
    if header != ["p", "w", "d"]:
        raise ValueError(f'line 1: expected header "p,w,d", got {",".join(rows[0])!r}')
    if len(rows) == 1:
        raise ValueError("no job rows after the header")
    jobs = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ValueError(f"line {line_no}: expected 3 fields, got {len(row)}")
        p, w, d = (cell.strip() for cell in row)
        where = f"line {line_no}"
        jobs.append(
            Job(
                id=line_no - 2,
                p=_positive_int(p, "p", where),
                w=_positive_int(w, "w", where),
                d=_positive_int(d, "d", where),
            )
        )
    return Instance(tuple(jobs))


def parse_instance(source: str | Path | IO[str]) -> Instance:
    """Parse an instance from a path or text stream; format is detected
    from the file suffix, else by sniffing for a JSON object."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        text, suffix = path.read_text(), path.suffix.lower()
    else:
        text, suffix = source.read(), ""
    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark, as Excel's "CSV UTF-8" export writes
    if suffix == ".json":
        return parse_instance_json(text)
    if suffix == ".csv":
        return parse_instance_csv(text)
    if not text.strip():
        raise ValueError("empty file")
    if text.lstrip()[0] == "{":
        return parse_instance_json(text)
    return parse_instance_csv(text)


def serialize_instance(instance: Instance, format: str = "json") -> str:
    """Render an instance as JSON or CSV text (jobs in id order)."""
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    if format == "json":
        doc = {"jobs": [{"p": j.p, "w": j.w, "d": j.d} for j in jobs]}
        return json.dumps(doc, indent=2) + "\n"
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["p", "w", "d"])
        for j in jobs:
            writer.writerow([j.p, j.w, j.d])
        return out.getvalue()
    raise ValueError(f"unknown format {format!r}; choose json or csv")
