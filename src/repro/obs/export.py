"""Trace exporters: the text explain-analyze renderer and JSONL helpers.

:func:`render_trace` turns one trace's span records (local
:meth:`~repro.obs.trace.Span.as_record` dicts plus adopted worker-side
records) into an indented tree with per-span durations, attributes, and
an inline flamegraph bar scaled to the root span::

    trace 3f2a… · query.answer · 12.4ms · 17 spans
    query.answer 12.4ms [engine=plan] |####################|
    ├─ query.reformulate 1.2ms [cache=miss rewritings=4] |##      |
    ├─ plan.compile 0.8ms                                | #      |
    └─ plan.execute 9.9ms                                |  ######|
       └─ scatter.wave 4.1ms [wave=0 peers=3]
          └─ scan.unit 2.0ms [peer=p0 relations=r attempts=2]
             ├─ scan.attempt 1.1ms [peer=p0 kind=primary status=error]
             ├─ scan.attempt 0.9ms [peer=p0 kind=retry]
             └─ ~ rpc.serve.scan_since 0.7ms [peer=p0]

Worker-side spans (``remote: true``) carry a foreign monotonic epoch, so
they are marked ``~`` and get no timeline bar — their duration is exact,
their offset is not comparable.  Spans whose parent is missing from the
record set (evicted or never shipped) render under an ``(orphans)``
marker rather than being dropped.

The module doubles as a CLI over a ``REPRO_TRACE_SINK`` file::

    python -m repro.obs.export trace.jsonl            # render last trace
    python -m repro.obs.export trace.jsonl --list     # one line per trace
    python -m repro.obs.export trace.jsonl --trace ID
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["render_trace", "render_last", "load_sink", "main"]

_BAR_WIDTH = 20


def _format_duration(duration_us: float) -> str:
    if duration_us >= 1_000_000:
        return f"{duration_us / 1_000_000:.2f}s"
    if duration_us >= 1_000:
        return f"{duration_us / 1_000:.1f}ms"
    return f"{duration_us:.0f}us"


def _format_attrs(record: Mapping) -> str:
    attrs = record.get("attrs") or {}
    parts = [f"{key}={value}" for key, value in attrs.items() if key != "error"]
    status = record.get("status", "ok")
    if status != "ok":
        parts.append(f"status={status}")
        error = attrs.get("error")
        if error:
            parts.append(f"error={error}")
    return f" [{' '.join(parts)}]" if parts else ""


def _bar(record: Mapping, root: Mapping) -> str:
    """Timeline bar relative to the root span; blank for foreign epochs."""
    if record.get("remote"):
        return " " * (_BAR_WIDTH + 2)
    total = root.get("duration_us") or 0
    if total <= 0:
        return " " * (_BAR_WIDTH + 2)
    offset_us = (record.get("start_ns", 0) - root.get("start_ns", 0)) / 1000.0
    offset = max(0.0, min(1.0, offset_us / total))
    width = min(1.0 - offset, (record.get("duration_us") or 0) / total)
    lead = int(offset * _BAR_WIDTH)
    fill = max(1, int(width * _BAR_WIDTH)) if width > 0 else 1
    fill = min(fill, _BAR_WIDTH - lead)
    return "|" + " " * lead + "#" * fill + " " * (_BAR_WIDTH - lead - fill) + "|"


def _children_index(
    spans: Sequence[Mapping],
) -> Tuple[List[Mapping], Dict[str, List[Mapping]], List[Mapping]]:
    """Split spans into (roots, children-by-parent, orphans)."""
    by_id = {record.get("span_id"): record for record in spans}
    roots: List[Mapping] = []
    children: Dict[str, List[Mapping]] = {}
    orphans: List[Mapping] = []
    for record in spans:
        parent = record.get("parent_id")
        if parent is None:
            roots.append(record)
        elif parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            orphans.append(record)
    # Stable order: local spans by start time, then adopted remote spans
    # (their foreign start_ns is not comparable with local clocks).
    def order(bucket: List[Mapping]) -> List[Mapping]:
        return sorted(
            bucket, key=lambda r: (bool(r.get("remote")), r.get("start_ns", 0))
        )

    return order(roots), {k: order(v) for k, v in children.items()}, order(orphans)


def render_trace(spans: Sequence[Mapping], bars: bool = True) -> str:
    """Render one trace's span records as an explain-analyze text tree."""
    if not spans:
        return "(empty trace)"
    roots, children, orphans = _children_index(spans)
    trace_id = spans[0].get("trace_id", "?")
    anchor = roots[0] if roots else spans[0]
    lines = [
        f"trace {trace_id} · {anchor.get('name', '?')} · "
        f"{_format_duration(anchor.get('duration_us') or 0)} · {len(spans)} spans"
    ]

    def emit(record: Mapping, prefix: str, branch: str, child_prefix: str) -> None:
        marker = "~ " if record.get("remote") else ""
        line = (
            f"{prefix}{branch}{marker}{record.get('name', '?')} "
            f"{_format_duration(record.get('duration_us') or 0)}"
            f"{_format_attrs(record)}"
        )
        if bars:
            line = f"{line:<72} {_bar(record, anchor)}"
        lines.append(line.rstrip())
        kids = children.get(record.get("span_id"), [])
        for index, kid in enumerate(kids):
            last = index == len(kids) - 1
            emit(
                kid,
                child_prefix,
                "└─ " if last else "├─ ",
                child_prefix + ("   " if last else "│  "),
            )

    for root in roots:
        emit(root, "", "", "")
    if orphans:
        lines.append("(orphans — parent span not in this trace)")
        for orphan in orphans:
            emit(orphan, "", "└─ ", "   ")
    return "\n".join(lines)


def render_last(tracer=None, bars: bool = True) -> str:
    """Render the most recently started trace of ``tracer`` (default global)."""
    if tracer is None:
        from .trace import get_tracer

        tracer = get_tracer()
    trace_id, spans = tracer.last_trace()
    if trace_id is None:
        return "(no traces recorded)"
    return render_trace(spans, bars=bars)


def load_sink(path: str) -> List[dict]:
    """Parse a ``REPRO_TRACE_SINK`` JSONL file into trace documents."""
    documents: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            document = json.loads(line)
            if isinstance(document, dict) and "spans" in document:
                documents.append(document)
    return documents


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Render traces from a REPRO_TRACE_SINK JSONL file."
    )
    parser.add_argument("sink", help="path to the JSONL trace sink")
    parser.add_argument("--trace", help="trace id to render (default: last)")
    parser.add_argument("--list", action="store_true", dest="list_traces",
                        help="list one summary line per trace")
    parser.add_argument("--no-bars", action="store_true",
                        help="omit the timeline bars")
    args = parser.parse_args(argv)
    documents = load_sink(args.sink)
    if not documents:
        print("(sink holds no traces)", file=sys.stderr)
        return 1
    if args.list_traces:
        for document in documents:
            spans = document.get("spans", [])
            root = next(
                (s for s in spans if s.get("parent_id") is None), None
            ) or {}
            print(
                f"{document.get('trace_id')} {document.get('root', '?')} "
                f"{_format_duration(root.get('duration_us') or 0)} "
                f"({len(spans)} spans)"
            )
        return 0
    if args.trace:
        chosen = next(
            (d for d in documents if d.get("trace_id") == args.trace), None
        )
        if chosen is None:
            print(f"trace {args.trace} not found in {args.sink}", file=sys.stderr)
            return 1
    else:
        chosen = documents[-1]
    print(render_trace(chosen.get("spans", []), bars=not args.no_bars))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved unix filter (devnull swallows the flush-at-exit).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
