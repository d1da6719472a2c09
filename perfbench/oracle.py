"""Checks of command outputs against the expectations the generator recorded.

Every check returns None when the output is accepted, or a one-line reason.
Nothing here calls spokenkit: TEI output is read with ElementTree and tier
output with a plain line split, so a defect in the program's own readers
cannot hide a defect in its writers.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter

TEI = "{http://www.tei-c.org/ns/1.0}"
XML_ID = "{http://www.w3.org/XML/1998/namespace}id"


def check(command: str, expect: dict, exit_code: int, stdout: str, source: bytes) -> str | None:
    if command == "validate":
        return check_validate(expect["validate"], exit_code, stdout)
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if command == "overlaps":
        return None if stdout == expect["overlaps"] else "overlap rows differ from the generated intervals"
    if command == "convert_tier":
        if expect.get("tier_bytes"):
            return None if stdout.encode("utf-8") == source else "tier output differs from its input"
        return check_tier(expect["tier"], stdout)
    if command == "convert_tei":
        return check_tei(expect["tei"], stdout)
    raise ValueError(f"no oracle for command {command!r}")


def check_validate(expect: dict, exit_code: int, stdout: str) -> str | None:
    """The planted (code, severity, location) set, the summary line and the exit code."""
    if exit_code != expect["exit"]:
        return f"exit code {exit_code}, expected {expect['exit']}"
    lines = stdout.splitlines()
    if not lines:
        return "empty report"
    issues = []
    for line in lines[:-1]:
        severity, code, rest = line.split(" ", 2)
        issues.append([code, severity, rest.split(": ", 1)[0]])
    if sorted(issues) != expect["issues"]:
        return f"issues {sorted(issues)} differ from the planted {expect['issues']}"
    errors = sum(1 for i in issues if i[1] == "error")
    summary = f"{errors} error(s), {len(issues) - errors} warning(s)"
    return None if lines[-1] == summary else f"summary {lines[-1]!r}, expected {summary!r}"


def check_tier(expect: dict, text: str) -> str | None:
    """Points, per-speaker tiers and events, and the rule that events in a tier do not overlap."""
    points: list[list[str]] = []
    tiers: dict[str, tuple[str, str]] = {}
    events: list[list[str]] = []
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "@point":
            points.append(fields[1:])
        elif fields[0] == "@tier":
            tiers[fields[1]] = (fields[2], fields[3])
        elif fields[0] == "event":
            events.append(fields[1:])
    n_real = len(expect["points"])
    if points[:n_real] != expect["points"]:
        return "timeline points differ from the generated timeline"
    auto = points[n_real:]
    if len(auto) != expect["auto_points"] or any(not p[0].startswith("~auto") for p in auto):
        return f"{len(auto)} synthetic points, expected {expect['auto_points']}"
    got = Counter()
    for tier_id, start, end, event_text in events:
        if tier_id not in tiers:
            return f"event on undeclared tier {tier_id!r}"
        speaker, category = tiers[tier_id]
        if start.startswith("~auto") and end.startswith("~auto"):
            start = end = None
        got[(speaker, category, start, end, event_text)] += 1
    want = Counter(tuple(e) for e in expect["events"])
    if got != want:
        return f"{sum((got - want).values())} unexpected and {sum((want - got).values())} missing events"
    order = {p[0]: n for n, p in enumerate(points)}
    by_tier: dict[str, list[tuple[int, int]]] = {}
    for tier_id, start, end, _ in events:
        by_tier.setdefault(tier_id, []).append((order[start], order[end]))
    for tier_id, spans in by_tier.items():
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            if prev_end > next_start:
                return f"events overlap within tier {tier_id!r}"
    return None


def check_tei(expect: dict, text: str) -> str | None:
    """Element counts, token ids, the timeline and, when recorded, each event's anchors."""
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return f"ill-formed output: {exc}"
    counts = Counter(el.tag for el in root.iter())
    got = {
        "u": counts[TEI + "u"],
        "events": counts[TEI + "kinesic"] + counts[TEI + "incident"],
        "vocal": counts[TEI + "vocal"],
    }
    for key, value in got.items():
        if value != expect[key]:
            return f"{value} {key} elements, expected {expect[key]}"
    w_ids = [el.get(XML_ID) for el in root.iter(TEI + "w")]
    if w_ids != expect["w_ids"]:
        return "token ids differ from the generated tokens"
    when = [[el.get(XML_ID), el.get("absolute")] for el in root.iter(TEI + "when")]
    if when != expect["when"]:
        return "timeline differs from the generated timeline"
    if "elements" in expect:
        elements = []
        for el in root.iter():
            tag = el.tag[len(TEI):]
            if tag == "u":
                anchors = [a.get("synch", "").lstrip("#") for a in el.iter(TEI + "anchor")]
                elements.append([tag, anchors[0], anchors[-1]] if anchors else [tag, "", ""])
            elif tag in ("kinesic", "incident"):
                elements.append([tag, el.get("start", "").lstrip("#"), el.get("end", "").lstrip("#")])
        if sorted(elements) != expect["elements"]:
            return "event anchors differ from the generated events"
    return None
