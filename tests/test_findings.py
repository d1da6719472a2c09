"""Every pipeline stage reports its problems as ``Finding``s."""

from __future__ import annotations

import pytest

from spokenkit.core import Finding
from spokenkit.tei import (
    Utterance,
    extract_spans,
    parse_document,
    promote_conventions,
    resolve_anchors,
)
from tests.conftest import fixture_bytes


def parse_warnings() -> list[Finding]:
    data = (
        b"<TEI><teiHeader><fileDesc><titleStmt><title>t</title></titleStmt>"
        b"<publicationStmt><p>p</p></publicationStmt><sourceDesc><p>s</p></sourceDesc>"
        b"</fileDesc></teiHeader><text><body/></text></TEI>"
    )
    return parse_document(data)[1]


def anchor_findings() -> list[Finding]:
    data = fixture_bytes("anchored_dialogue.xml").replace(b'synch="#T7"', b'synch="#T99"')
    return resolve_anchors(parse_document(data)[0])[1]


def span_findings() -> list[Finding]:
    data = fixture_bytes("pomme.xml").replace(b'from="#t1" to="#t3"', b'from="#t3" to="#t1"')
    return extract_spans(parse_document(data)[0])[1]


def convention_findings() -> list[Finding]:
    utterance = Utterance(id="u1", content=("et puis (( sans fin",))
    return promote_conventions(utterance)[1]


@pytest.mark.parametrize(
    "produce, code, location",
    [
        (parse_warnings, "NO_TEI_NS", "TEI"),
        (anchor_findings, "DANGLING_REF", "u3"),
        (span_findings, "SPAN_ORDER", "span over t3..t1"),
        (convention_findings, "UNBALANCED_MARKER", "u1"),
    ],
)
def test_each_producer_returns_coded_located_findings(produce, code, location):
    findings = produce()
    assert findings
    for finding in findings:
        assert isinstance(finding, Finding)
        assert finding.code and finding.location
        assert finding.severity == "warning"
        assert str(finding) == finding.message
    assert (code, location) in [(f.code, f.location) for f in findings]
