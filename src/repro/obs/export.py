"""Trace export and rendering: JSONL, Chrome ``trace_event``, tables.

The on-disk format is one span per line (JSONL) so traces stream and
append across pipeline resumes.  :func:`chrome_trace` converts a span
list into the Chrome/Perfetto ``trace_event`` JSON array (complete
``"X"`` events, microsecond timestamps) loadable at ``chrome://tracing``
or https://ui.perfetto.dev.  :func:`summarize_spans` /
:func:`render_summary` back ``python -m repro trace summarize``, and
:func:`hot_modules` / :func:`render_profile` build the ``--profile``
hottest-modules table by apportioning measured wall time over the
per-module statement counts the coverage machinery already collects —
no extra hot-path instrumentation, hence no extra overhead.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Mapping, Optional, Sequence, Union

from .trace import Span, round_wall

__all__ = [
    "chrome_trace",
    "hot_modules",
    "read_trace",
    "render_profile",
    "render_summary",
    "summarize_spans",
    "write_chrome_trace",
    "write_trace",
]


def write_trace(spans: Iterable[Span], path_or_file: Union[str, IO[str]]) -> int:
    """Append spans to ``path_or_file`` as JSONL; returns spans written."""
    if hasattr(path_or_file, "write"):
        return _write_lines(spans, path_or_file)  # type: ignore[arg-type]
    with open(path_or_file, "a", encoding="utf-8") as fh:
        return _write_lines(spans, fh)


def _write_lines(spans: Iterable[Span], fh: IO[str]) -> int:
    n = 0
    for span in spans:
        fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        n += 1
    return n


def read_trace(path_or_file: Union[str, IO[str]]) -> list[Span]:
    """Parse a JSONL trace back into :class:`Span` objects; a line that is
    not a span object raises ``ValueError`` naming its line number."""
    if hasattr(path_or_file, "read"):
        return _read_lines(path_or_file)  # type: ignore[arg-type]
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return _read_lines(fh)


def _read_lines(fh: IO[str]) -> list[Span]:
    spans = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise TypeError("not a JSON object")
            spans.append(Span.from_dict(doc))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"line {lineno} is not a span: {type(exc).__name__}: {exc}"
            ) from exc
    return spans


def chrome_trace(spans: Sequence[Span]) -> list[dict]:
    """Spans as Chrome ``trace_event`` complete events (``ph: "X"``)."""
    events = []
    for span in spans:
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.wall_s * 1e6,
                "pid": span.pid,
                "tid": span.thread_id,
                "cat": span.name.split(":", 1)[0].split(".", 1)[0],
                "args": args,
            }
        )
    return events


def write_chrome_trace(spans: Sequence[Span], path: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans), fh)
    return len(spans)


def summarize_spans(spans: Sequence[Span]) -> list[dict]:
    """Aggregate spans by name: count, total/max wall, total CPU.

    Rows come back sorted by total wall time, hottest first.
    """
    rows: dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(
            span.name,
            {"name": span.name, "count": 0, "wall_s": 0.0, "cpu_s": 0.0, "max_s": 0.0},
        )
        row["count"] += 1
        row["wall_s"] += span.wall_s
        row["cpu_s"] += span.cpu_s
        row["max_s"] = max(row["max_s"], span.wall_s)
    out = sorted(rows.values(), key=lambda r: -r["wall_s"])
    for row in out:
        for key in ("wall_s", "cpu_s", "max_s"):
            row[key] = round_wall(row[key])
    return out


def render_summary(spans: Sequence[Span], top: int = 0) -> str:
    """A markdown table of :func:`summarize_spans` (all rows if top==0)."""
    rows = summarize_spans(spans)
    if top:
        rows = rows[:top]
    lines = [
        "| span | count | wall_s | cpu_s | max_s |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for row in rows:
        lines.append(
            f"| {row['name']} | {row['count']} | {row['wall_s']:.4f}"
            f" | {row['cpu_s']:.4f} | {row['max_s']:.4f} |"
        )
    lines.append(f"\nspans: {len(spans)}")
    return "\n".join(lines)


def hot_modules(
    statement_counts: Mapping[str, int],
    wall_s: float,
    top: int = 10,
    module_names: Optional[Mapping[str, str]] = None,
) -> list[dict]:
    """The hottest-modules profile: statement share and estimated wall.

    ``statement_counts`` maps file name -> statements executed (summed
    coverage counts); ``wall_s`` is the measured wall time of the run(s)
    the coverage came from, apportioned proportionally.  ``module_names``
    optionally maps file name -> Fortran module name for display.
    """
    total = sum(statement_counts.values())
    rows = []
    for fname, count in sorted(statement_counts.items(), key=lambda kv: -kv[1]):
        share = count / total if total else 0.0
        rows.append(
            {
                "module": (module_names or {}).get(fname, fname),
                "file": fname,
                "statements": int(count),
                "share": round(share, 4),
                "est_wall_s": round_wall(wall_s * share),
            }
        )
    return rows[:top] if top else rows


def render_profile(rows: Sequence[Mapping]) -> str:
    """A markdown table of :func:`hot_modules` rows."""
    lines = [
        "| module | statements | share | est_wall_s |",
        "| --- | ---: | ---: | ---: |",
    ]
    for row in rows:
        lines.append(
            f"| {row['module']} | {row['statements']} | {row['share'] * 100:.1f}%"
            f" | {row['est_wall_s']:.4f} |"
        )
    return "\n".join(lines)
