"""Seeded synthetic corpora for the benchmark workloads.

Each workload is a set of documents plus the side inputs its commands take
(registry, convention rules, config). Document sizes are drawn log-uniformly
and stratified: each of n equal slices of the log range gives one document
its size, and the slices are dealt to the documents in an order that is the
same for every seed. Every seed thus gets the same sequence of sizes, up to
the draw within each slice, and only the content varies. Every document carries its expected outcomes, derived here
from what was generated and never from spokenkit; ``oracle.py`` checks the
program's outputs against them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

TEI_NS = "http://www.tei-c.org/ns/1.0"
SPEAKERS = ("S1", "S2", "S3", "S4")
SPEAKER_NAMES = {"S1": "Anne Martin", "S2": "Bruno Petit", "S3": "Chloé Roux", "S4": "David Leroy"}
WORDS = (
    "alors", "oui", "non", "bon", "ben", "très", "bien", "ça", "dépend", "un", "petit", "peu",
    "voilà", "enfin", "donc", "quoi", "mais", "euh", "hm", "on", "va", "voir", "demain", "là",
    "c'est", "vrai", "tout", "à", "fait", "parce", "que", "je", "sais", "pas", "ouais", "ah",
)
NOUNS = ("chat", "maison", "table", "ville", "pomme", "livre", "rue", "porte", "main", "terre")
VERBS = ("est", "mange", "part", "voit", "dort", "prend", "fait", "dit")
ADJECTIVES = ("grand", "petite", "rouge", "belle", "vieux", "neuve")
DETERMINERS = ("le", "la", "les", "un", "une", "des")
VOCAL_DESCS = ("laughs", "coughs", "sighs", "clears throat")
INCIDENT_DESCS = ("door slams", "phone rings", "chair creaks", "paper rustles")
GESTURE_DESCS = ("nods", "shrugs", "points left", "raises hand")
GRID_MS = 250


@dataclass(frozen=True)
class Workload:
    doc_count: int
    size_range: tuple[int, int]
    item_kind: str
    commands: tuple[str, ...]
    shares: dict


WORKLOADS = {
    "dialogue": Workload(
        doc_count=100,
        size_range=(50, 1600),
        item_kind="timed events",
        commands=("validate", "overlaps", "convert_tier"),
        shares={"incident": 0.15, "unanchored_kinesic": 0.15, "vocal_in_utterance": 0.2},
    ),
    "tagged": Workload(
        doc_count=100,
        size_range=(200, 8000),
        item_kind="tokens",
        commands=("validate", "convert_tei"),
        shares={"tagged_tokens": 0.6, "convention_utterances": 0.25},
    ),
    "score": Workload(
        doc_count=100,
        size_range=(100, 8000),
        item_kind="timed events",
        commands=("convert_tei", "convert_tier"),
        shares={"verbal": 0.6, "gaze": 0.25, "incident": 0.15},
    ),
}


@dataclass
class Doc:
    name: str
    items: int
    data: bytes
    expect: dict


@dataclass
class Corpus:
    workload: Workload
    seed: int
    docs: list[Doc]
    side: dict[str, bytes]
    warmup: Doc


def stratified_sizes(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """One size per n-th of the log range, in an order that is the same for every seed.

    Which document follows which changes what the allocator and the garbage
    collector carry from one operation into the next, so the order stays
    fixed and only the sizes within their strata and the content vary.
    """
    span = math.log(hi / lo)
    sizes = [round(lo * math.exp((k + rng.random()) / n * span)) for k in range(n)]
    random.Random(n).shuffle(sizes)
    return sizes


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def _header(title: str, speakers) -> list[str]:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<TEI xmlns="{TEI_NS}">',
        "  <teiHeader>",
        "    <fileDesc>",
        f"      <titleStmt><title>{_esc(title)}</title></titleStmt>",
        "      <publicationStmt><p>Synthetic benchmark corpus</p></publicationStmt>",
        "      <sourceDesc><p>Generated from a seed</p></sourceDesc>",
        "    </fileDesc>",
        "    <profileDesc>",
        "      <particDesc>",
    ]
    for sid in speakers:
        lines.append(
            f'        <person xml:id="{sid}"><persName><abbr>{_esc(SPEAKER_NAMES[sid])}'
            "</abbr></persName></person>"
        )
    lines += ["      </particDesc>", "    </profileDesc>", "  </teiHeader>"]
    return lines


# ---------------------------------------------------------------- dialogue

def dialogue_doc(rng: random.Random, name: str, n_events: int, slip: bool = False) -> Doc:
    """An anchored conversation of ``n_events`` timed events.

    Utterances of four concurrent speakers overlap across speakers; each is
    anchored at start, middle and end. Incidents carry @start/@end; a share
    of free-standing gesture events carries no anchors at all. Every document
    plants one dangling @synch, one anchor-order reversal, one offset
    contradiction and one undeclared @who. A slip document adds one utterance
    overlapping another of the same speaker.
    """
    shares = WORKLOADS["dialogue"].shares
    n_unanchored = max(1, round(n_events * shares["unanchored_kinesic"]))
    n_incidents = max(1, round(n_events * shares["incident"]))
    n_utts = n_events - n_unanchored - n_incidents - (1 if slip else 0)

    # Boundaries snap to a 250 ms grid, so events of different speakers share
    # points the way transcription tools reuse timeline entries.
    grid: dict[int, list] = {}  # time_ms -> [time_ms, id]

    def point(time_ms: int) -> list:
        time_ms = round(time_ms / GRID_MS) * GRID_MS
        return grid.setdefault(time_ms, [time_ms, None])

    events: list[dict] = []
    cursors = {sid: rng.randint(0, 2000) for sid in SPEAKERS}
    for k in range(n_utts):
        sid = SPEAKERS[k % 4]
        start = cursors[sid] + rng.randint(1, 1500)
        dur = rng.randint(1500, 5000)
        mid = start + rng.randint(dur // 4, 3 * dur // 4)
        end = start + dur
        cursors[sid] = end
        pieces = [_words(rng, 1, 6) + " ", _words(rng, 1, 6)]
        vocal = rng.choice(VOCAL_DESCS) if rng.random() < shares["vocal_in_utterance"] else None
        tail = " " + _words(rng, 1, 3) if vocal else ""
        events.append({
            "kind": "u", "who": sid, "start": point(start), "mid": point(mid),
            "end": point(end), "pieces": pieces, "vocal": vocal, "tail": tail,
        })
    span_ms = max(cursors.values())
    if slip:
        victim = rng.choice([e for e in events if e["kind"] == "u"])
        t0, t1 = victim["start"][0], victim["end"][0]
        start = t0 + (t1 - t0) // 3
        end = t1 + rng.randint(200, 1500)
        events.append({
            "kind": "u", "who": victim["who"], "start": point(start),
            "mid": point((start + end) // 2), "end": point(end),
            "pieces": [_words(rng, 1, 4) + " ", _words(rng, 1, 4)], "vocal": None, "tail": "",
        })
    per_speaker = [n_incidents // 4 + (1 if k < n_incidents % 4 else 0) for k in range(4)]
    for sid, count in zip(SPEAKERS, per_speaker):
        slot = span_ms // max(count, 1)
        for j in range(count):
            dur = rng.randint(max(2 * GRID_MS, slot // 8), max(2 * GRID_MS, slot // 2))
            start = j * slot + rng.randint(0, max(0, slot - dur - GRID_MS))
            events.append({
                "kind": "incident", "who": sid, "start": point(start),
                "end": point(start + dur), "desc": rng.choice(INCIDENT_DESCS),
            })

    points = sorted(grid.values())
    for n, p in enumerate(points):
        p[1] = f"T{n + 1}"
    index = {id(p): n for n, p in enumerate(points)}
    offsets = [p[0] for p in points]

    events.sort(key=lambda e: (index[id(e["start"])], e["kind"]))
    body_events: list[dict] = list(events)
    for j in range(n_unanchored):
        body_events.insert(rng.randint(0, len(body_events)), {
            "kind": "kinesic", "who": rng.choice(SPEAKERS), "desc": rng.choice(GESTURE_DESCS),
        })
    counters = {"u": 0, "incident": 0, "kinesic": 0}
    for e in body_events:
        counters[e["kind"]] += 1
        e["id"] = {"u": "u", "incident": "inc", "kinesic": "k"}[e["kind"]] + str(counters[e["kind"]])

    # Planted defects, each on its own utterance.
    utts = [e for e in body_events if e["kind"] == "u"]
    dangling, reversed_, stranger = rng.sample([u for u in utts if index[id(u["start"])] > 0], 3)
    dangling["extra_anchor"] = "Tmissing"
    reversed_["mid_override"] = rng.randrange(0, index[id(reversed_["start"])])
    stranger["who"] = "S9"
    k = rng.randrange(max(1, len(points) // 4), len(points) - 1)
    offsets[k] = offsets[k - 1] - 1

    ids = [p[1] for p in points]
    lines = _header(f"Dialogue {name}", SPEAKERS)
    lines += ["  <text>", '    <timeline unit="ms">']
    lines += [f'      <when absolute="{off}" xml:id="{pid}"/>' for pid, off in zip(ids, offsets)]
    lines += ["    </timeline>", "    <body>"]

    intervals: list[tuple[int, int, str]] = []
    tier_events: list[list] = []
    for e in body_events:
        if e["kind"] == "u":
            s, m, t = index[id(e["start"])], index[id(e["mid"])], index[id(e["end"])]
            mid_ref = ids[e.get("mid_override", m)]
            content = f'<anchor synch="#{ids[s]}"/>{_esc(e["pieces"][0])}'
            if "extra_anchor" in e:
                content += f'<anchor synch="#{e["extra_anchor"]}"/>'
            content += f'<anchor synch="#{mid_ref}"/>{_esc(e["pieces"][1])}'
            if e["vocal"]:
                content += f"<vocal><desc>{e['vocal']}</desc></vocal>{_esc(e['tail'])}"
            content += f'<anchor synch="#{ids[t]}"/>'
            lines.append(f'      <u who="#{e["who"]}" xml:id="{e["id"]}">{content}</u>')
            intervals.append((s, t, e["id"]))
            text = e["pieces"][0] + e["pieces"][1] + e["tail"]
            tier_events.append([e["who"], "verbal", ids[s], ids[t], text])
        elif e["kind"] == "incident":
            s, t = index[id(e["start"])], index[id(e["end"])]
            lines.append(
                f'      <incident end="#{ids[t]}" start="#{ids[s]}" type="nv" '
                f'who="#{e["who"]}" xml:id="{e["id"]}"><desc>{e["desc"]}</desc></incident>'
            )
            intervals.append((s, t, e["id"]))
            tier_events.append([e["who"], "incident", ids[s], ids[t], e["desc"]])
        else:
            lines.append(
                f'      <kinesic type="gesture" who="#{e["who"]}" xml:id="{e["id"]}">'
                f'<desc>{e["desc"]}</desc></kinesic>'
            )
            tier_events.append([e["who"], "gesture", None, None, e["desc"]])
    lines += ["    </body>", "  </text>", "</TEI>"]

    expect = {
        "validate": {
            "exit": 1,
            "issues": sorted([
                ["DANGLING_REF", "error", dangling["id"]],
                ["DANGLING_REF", "error", stranger["id"]],
                ["ANCHOR_ORDER", "warning", reversed_["id"]],
                ["OFFSET_ORDER", "warning", ids[k]],
            ]),
        },
        "overlaps": overlap_rows(intervals, ids),
        "tier": {
            "points": [[pid, str(off)] for pid, off in zip(ids, offsets)],
            "auto_points": 2 * n_unanchored,
            "events": tier_events,
        },
        "slip": slip,
    }
    return Doc(name, len(body_events), ("\n".join(lines) + "\n").encode("utf-8"), expect)


def overlap_rows(intervals: list[tuple[int, int, str]], point_ids: list[str]) -> str:
    """The overlap table for proper intervals, in the documented order.

    Intervals are ranked by (start, end, id); a pair (a, b) with a ranked
    first is listed when the two share time, and pairs follow rank order.
    Because intervals are proper and ranked by start, the partners of a are
    exactly the following intervals that start before a ends.
    """
    ranked = sorted(intervals)
    rows: list[str] = []
    for i, (s1, e1, id1) in enumerate(ranked):
        for s2, e2, id2 in ranked[i + 1:]:
            if s2 >= e1:
                break
            rows.append(f"{id1}\t{id2}\t{point_ids[s2]}\t{point_ids[min(e1, e2)]}\n")
    return "".join(rows)


# ---------------------------------------------------------------- tagged

POS = {"NC": "commonNoun", "NP": "properNoun", "V": "verb", "A": "adjective", "D": "determiner"}
GENDER = {"mas": "masculine", "fem": "feminine", "neu": "neuter"}
NUMBER = {"sing": "singular", "plur": "plural"}
TAGS = {
    "Ncms__": ("NC", "mas", "sing"), "Ncfs__": ("NC", "fem", "sing"),
    "Ncmp__": ("NC", "mas", "plur"), "Ncfp__": ("NC", "fem", "plur"),
    "Ncns__": ("NC", "neu", "sing"),
    "Np_s__": ("NP", "sing"), "Vmis3s": ("V", "sing"), "Vmip3p": ("V", "plur"),
    "Afpms_": ("A", "mas", "sing"), "Afpfs_": ("A", "fem", "sing"),
    "Afpmp_": ("A", "mas", "plur"), "Da_ms_": ("D", "mas", "sing"),
    "Da_fs_": ("D", "fem", "sing"), "Da_cp_": ("D", "plur"),
}
FR_TAGS = tuple(t for t, feats in TAGS.items() if "neu" not in feats)
REGISTRY_FILLER = 240
DCR = "http://dcr.example.org/"


def registry_tsv() -> bytes:
    """A data-category registry covering the tagset, with a French gender restriction."""
    lines = ["# morphosyntactic data categories for the tagged workload"]

    def domain(values) -> str:
        return ",".join(DCR + v for v in values)

    lines.append(f"{DCR}partOfSpeech\tcomplex\tpartOfSpeech\t-\t{domain(POS.values())}")
    lines.append(
        f"{DCR}grammaticalGender\tcomplex\tgrammaticalGender\t-\t{domain(GENDER.values())}"
        f"\tfr={domain(['masculine', 'feminine'])}"
    )
    lines.append(f"{DCR}grammaticalNumber\tcomplex\tgrammaticalNumber\t-\t{domain(NUMBER.values())}")
    for value in (*POS.values(), *GENDER.values(), *NUMBER.values()):
        lines.append(f"{DCR}{value}\tsimple\t{value}\t-\t-")
    for n in range(REGISTRY_FILLER):
        broader = f"{DCR}filler{n // 8 * 8}" if n % 8 else "-"
        lines.append(f"{DCR}filler{n}\tsimple\tfiller{n}\t{broader}\t-")
    return ("\n".join(lines) + "\n").encode("utf-8")


CONVENTION_RULES = b"# promote double-parenthesis event descriptions\n\\(\\((.+?)\\)\\)\tvocal\t1\n"


def _tagset_lines() -> list[str]:
    lines = ['      <fLib n="grammatical category">']
    lines += [f'        <f name="partOfSpeech" xml:id="{k}"><symbol value="{v}"/></f>' for k, v in POS.items()]
    lines += ["      </fLib>", '      <fLib n="grammatical gender">']
    lines += [f'        <f name="grammaticalGender" xml:id="{k}"><symbol value="{v}"/></f>' for k, v in GENDER.items()]
    lines += ["      </fLib>", '      <fLib n="grammatical number">']
    lines += [f'        <f name="grammaticalNumber" xml:id="{k}"><symbol value="{v}"/></f>' for k, v in NUMBER.items()]
    lines += ["      </fLib>", "      <fvLib>"]
    lines += [
        f'        <fs feats="{" ".join("#" + f for f in feats)}" xml:id="{tag}"/>'
        for tag, feats in TAGS.items()
    ]
    lines.append("      </fvLib>")
    return lines


def tagged_doc(rng: random.Random, name: str, n_tokens: int) -> Doc:
    """A tokenised, tagged transcript of ``n_tokens`` tokens.

    Tokens sit in phrase segments inside clause segments; about 60% carry an
    @ana into the document's own tagset. The document has a word-form span
    group, lexical entries and ``((...))`` convention text, two anchored
    utterances on a four-point timeline and no overlaps. It plants an unknown
    tag, a backwards span, a duplicate xml:id and a neuter tag that the
    French restriction rejects.
    """
    shares = WORKLOADS["tagged"].shares
    tokens: list[dict] = []
    utts: list[dict] = []
    seg_count = 0
    while len(tokens) < n_tokens:
        utt = {"who": SPEAKERS[len(utts) % 4], "clauses": [], "convention": None}
        for _ in range(rng.randint(1, 2)):
            clause = []
            for _ in range(rng.randint(2, 4)):
                phrase = []
                for _ in range(rng.randint(2, 4)):
                    if len(tokens) >= n_tokens:
                        break
                    tok = {"id": f"w{len(tokens) + 1}", "ana": None}
                    if rng.random() < shares["tagged_tokens"]:
                        tok["ana"] = rng.choice(FR_TAGS)
                    tok["text"] = _token_text(rng, tok["ana"])
                    tokens.append(tok)
                    phrase.append(tok)
                if phrase:
                    clause.append(phrase)
            if clause:
                seg_count += 1
                utt["clauses"].append({"id": f"sg{seg_count}", "phrases": clause})
        if rng.random() < shares["convention_utterances"]:
            utt["convention"] = rng.choice(VOCAL_DESCS)
        utts.append(utt)

    unknown_tok, neuter_tok = rng.sample(tokens, 2)
    unknown_tok["ana"] = "Zx9999"
    neuter_tok["ana"] = "Ncns__"
    dup_id = "sgdup"
    for clause in rng.sample([c for u in utts for c in u["clauses"]], 2):
        clause["id"] = dup_id

    forms = [
        {"id": f"lf{n + 1}", "orth": noun, "number": "singular"} for n, noun in enumerate(NOUNS)
    ]
    spans: list[dict] = []
    pos = 0
    while pos < len(tokens) - 3:
        pos += rng.randint(10, 30)
        if pos >= len(tokens) - 3:
            break
        width = rng.randint(0, 2)
        choice = rng.random()
        ana = forms[rng.randrange(len(forms))]["id"] if choice < 0.5 else (
            rng.choice(FR_TAGS) if choice < 0.8 else None)
        spans.append({"id": f"sp{len(spans) + 1}", "from": tokens[pos]["id"],
                      "to": tokens[pos + width]["id"], "ana": ana})
    back_span = {"id": f"sp{len(spans) + 1}", "from": tokens[len(tokens) // 2 + 1]["id"],
                 "to": tokens[len(tokens) // 2 - 1]["id"], "ana": None}
    spans.append(back_span)

    lines = _header(f"Tagged transcript {name}", SPEAKERS)
    lines += ["  <text>", '    <timeline unit="ms">']
    lines += [f'      <when absolute="{n * 1000}" xml:id="T{n + 1}"/>' for n in range(4)]
    lines += ["    </timeline>", "    <body>"]
    anchored = {0: ("T1", "T2"), len(utts) - 1: ("T3", "T4")}
    for n, utt in enumerate(utts):
        parts = []
        for c, clause in enumerate(utt["clauses"]):
            if c == 1 and utt["convention"]:
                parts.append(f" (({utt['convention']})) ")
            elif c:
                parts.append(" ")
            phrases = " ".join(
                '<seg type="phrase">'
                + " ".join(_w(tok) for tok in phrase)
                + "</seg>"
                for phrase in clause["phrases"]
            )
            parts.append(f'<seg type="clause" xml:id="{clause["id"]}">{phrases}</seg>')
        if utt["convention"] and len(utt["clauses"]) == 1:
            parts.append(f" (({utt['convention']}))")
        parts.append("<pc>.</pc>")
        content = "".join(parts)
        if n in anchored:
            a, b = anchored[n]
            content = f'<anchor synch="#{a}"/>{content}<anchor synch="#{b}"/>'
        lines.append(f'      <u who="#{utt["who"]}" xml:id="u{n + 1}">{content}</u>')
    lines.append('      <spanGrp type="wordForm">')
    for sp in spans:
        ana = f' ana="#{sp["ana"]}"' if sp["ana"] else ""
        lines.append(f'        <span{ana} from="#{sp["from"]}" to="#{sp["to"]}" xml:id="{sp["id"]}"/>')
    lines += ["      </spanGrp>", "    </body>", "    <back>"]
    lines += _tagset_lines()
    for form in forms:
        lines.append(
            f'      <entry><form type="inflected" xml:id="{form["id"]}"><orth>{form["orth"]}</orth>'
            f'<gramGrp><number>{form["number"]}</number></gramGrp></form></entry>'
        )
    lines += ["    </back>", "  </text>", "</TEI>"]

    expect = {
        "validate": {
            "exit": 1,
            "issues": sorted([
                ["DANGLING_REF", "error", unknown_tok["id"]],
                ["UNKNOWN_TAG", "error", unknown_tok["id"]],
                ["DOMAIN_VIOLATION", "error", neuter_tok["id"]],
                ["SPAN_ORDER", "error", back_span["id"]],
                ["DUP_ID", "error", dup_id],
            ]),
        },
        "tei": {
            "u": len(utts),
            "events": 0,
            "vocal": sum(1 for u in utts if u["convention"]),
            "w_ids": [tok["id"] for tok in tokens],
            "when": [[f"T{n + 1}", str(n * 1000)] for n in range(4)],
        },
    }
    return Doc(name, len(tokens), ("\n".join(lines) + "\n").encode("utf-8"), expect)


def _token_text(rng: random.Random, tag: str | None) -> str:
    if tag is None:
        return rng.choice(WORDS)
    pool = {"NC": NOUNS, "NP": ("Paris", "Lyon", "Marie"), "V": VERBS, "A": ADJECTIVES,
            "D": DETERMINERS}[TAGS[tag][0]]
    return rng.choice(pool)


def _w(tok: dict) -> str:
    ana = f' ana="#{tok["ana"]}"' if tok["ana"] else ""
    return f'<w{ana} xml:id="{tok["id"]}">{_esc(tok["text"])}</w>'


# ---------------------------------------------------------------- score

SCORE_CATEGORIES = {"verbal": "utterance", "gaze": "gaze", "incident": "incident"}


def score_config() -> bytes:
    lines = ["# tier category to registry pid"]
    lines += [f"category\t{cat}\t{DCR}{pid}" for cat, pid in SCORE_CATEGORIES.items()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def score_doc(rng: random.Random, name: str, n_events: int) -> Doc:
    """A tier file of ``n_events`` events: 4 speakers x 3 categories.

    Events within a tier run strictly forward without overlap; tiers overlap
    each other freely. Every point carries an offset in seconds.
    """
    shares = WORKLOADS["score"].shares
    cats = list(SCORE_CATEGORIES)
    weights = [shares[c] for c in cats]
    points: list[list] = []
    events: list[dict] = []
    cursors = {(s, c): rng.randint(0, 3000) for s in SPEAKERS for c in cats}
    for _ in range(n_events):
        sid = rng.choice(SPEAKERS)
        cat = rng.choices(cats, weights)[0]
        key = (sid, cat)
        start = cursors[key] + rng.randint(1, 4000 if cat != "verbal" else 1200)
        end = start + rng.randint(300, 4000)
        cursors[key] = end
        ps, pe = [start, len(points), None], [end, len(points) + 1, None]
        points += [ps, pe]
        text = _words(rng, 2, 9) if cat == "verbal" else rng.choice(
            GESTURE_DESCS if cat == "gaze" else INCIDENT_DESCS)
        if cat == "verbal" and rng.random() < 0.1:
            text += f" (({rng.choice(VOCAL_DESCS)}))"
        events.append({"tier": f"{sid}_{cat}", "cat": cat, "start": ps, "end": pe, "text": text})
    points.sort(key=lambda p: (p[0], p[1]))
    for n, p in enumerate(points):
        p[2] = f"p{n}"
    events.sort(key=lambda e: (e["start"][0], e["start"][1]))

    lines = [f"# synthetic score {name}", ""]
    lines += [f"@speaker\t{sid}\t{SPEAKER_NAMES[sid]}" for sid in SPEAKERS]
    lines += [f"@point\t{p[2]}\t{p[0] // 1000}.{p[0] % 1000:03d}" for p in points]
    lines += [f"@tier\t{sid}_{cat}\t{sid}\t{cat}" for sid in SPEAKERS for cat in cats]
    lines.append("")
    lines += [f"event\t{e['tier']}\t{e['start'][2]}\t{e['end'][2]}\t{e['text']}" for e in events]
    data = ("\n".join(lines) + "\n").encode("utf-8")

    element = {"verbal": "u", "gaze": "kinesic", "incident": "incident"}
    expect = {
        "tier_bytes": True,
        "tei": {
            "u": sum(1 for e in events if e["cat"] == "verbal"),
            "events": sum(1 for e in events if e["cat"] != "verbal"),
            "vocal": 0,
            "w_ids": [],
            "when": [[p[2], f"{p[0] // 1000}.{p[0] % 1000:03d}"] for p in points],
            "elements": sorted([element[e["cat"]], e["start"][2], e["end"][2]] for e in events),
        },
    }
    return Doc(name, n_events, data, expect)


# ---------------------------------------------------------------- corpora

DOC_MAKERS = {"dialogue": dialogue_doc, "tagged": tagged_doc, "score": score_doc}
EXTENSIONS = {"dialogue": "xml", "tagged": "xml", "score": "tier"}


def side_inputs(workload: str) -> dict[str, bytes]:
    if workload == "tagged":
        return {"registry.tsv": registry_tsv(), "gat.rules": CONVENTION_RULES}
    if workload == "score":
        return {"categories.cfg": score_config()}
    return {}


def generate(workload: str, seed: int, doc_count: int | None = None,
             slip_share: float = 0.0) -> Corpus:
    """Build a workload's corpus; the same (workload, seed) gives the same bytes."""
    spec = WORKLOADS[workload]
    count = spec.doc_count if doc_count is None else doc_count
    rng = random.Random(f"{workload}:{seed}")
    sizes = stratified_sizes(rng, count, *spec.size_range)
    slips = set(rng.sample(range(count), round(count * slip_share))) if slip_share else set()
    make = DOC_MAKERS[workload]
    docs = []
    for k, size in enumerate(sizes):
        doc_rng = random.Random(f"{workload}:{seed}:{k}")
        name = f"doc{k:03d}.{EXTENSIONS[workload]}"
        if workload == "dialogue":
            docs.append(make(doc_rng, name, size, slip=k in slips))
        else:
            docs.append(make(doc_rng, name, size))
    warmup = make(random.Random(f"{workload}:{seed}:warmup"),
                  f"warmup.{EXTENSIONS[workload]}", spec.size_range[0])
    return Corpus(spec, seed, docs, side_inputs(workload), warmup)


def write_corpus(corpus: Corpus, root: Path) -> None:
    """Inputs go under ``inputs/`` (all the program sees); expectations under ``expected/``."""
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    (root / "expected").mkdir(parents=True, exist_ok=True)
    for name, data in corpus.side.items():
        (root / "inputs" / name).write_bytes(data)
    for doc in [*corpus.docs, corpus.warmup]:
        (root / "inputs" / doc.name).write_bytes(doc.data)
        (root / "expected" / (doc.name + ".json")).write_text(
            json.dumps({"items": doc.items, **doc.expect}), encoding="utf-8"
        )
