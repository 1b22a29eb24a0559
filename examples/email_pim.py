#!/usr/bin/env python
"""Personal information management over e-mail.

The paper lists PIM among the applications of the blueprint.  Here the
unstructured data is a mailbox; the derived structure is a meetings
calendar:

1. extract meeting date/time/room and correspondents from raw messages;
2. store them in the transactional final store;
3. exploit them: "what meetings are in room 2310?", "who emails me most?",
   and a second program when a new need (action items) appears later.

Run:  python examples/email_pim.py
"""

from repro import StructureManagementSystem
from repro.core.system import FACTS_TABLE
from repro.datagen import generate_email_corpus
from repro.extraction import RegexExtractor, normalize_date


def main() -> None:
    corpus, truths = generate_email_corpus(num_messages=80, seed=9)
    with_meetings = sum(1 for t in truths if t.meeting_date)
    print(f"Mailbox: {len(corpus)} messages "
          f"({with_meetings} mention a concrete meeting)\n")

    system = StructureManagementSystem(cache="memory")
    system.registry.register_extractor(
        "headers",
        RegexExtractor(pattern=r"From: (?P<sender>\S+@\S+)\nTo: (?P<recipient>\S+@\S+)"),
    )
    system.registry.register_extractor(
        "meetings",
        RegexExtractor(
            pattern=(r"on (?P<meeting_date>[A-Z][a-z]+ \d{1,2}, \d{4}) "
                     r"at (?P<meeting_time>\d{2}:\d{2}) "
                     r"in (?P<meeting_room>[A-Za-z0-9 ]+?)\."),
            normalizers={"meeting_date": normalize_date},
        ),
    )
    system.ingest(corpus)
    report = system.generate(
        'mail = docs()\n'
        'heads = extract(mail, "headers")\n'
        'meets = extract(mail, "meetings")\n'
        'all = union(heads, meets)\n'
        'output all'
    )
    print(f"Extracted {report.facts_stored} facts from the mailbox\n")

    print("== Meetings in Room 2310 ==")
    rows = system.query(
        f"SELECT doc_id FROM {FACTS_TABLE} "
        "WHERE attribute = 'meeting_room' AND value_text = 'Room 2310'"
    )
    for row in rows[:5]:
        date = system.query(
            f"SELECT value_text FROM {FACTS_TABLE} "
            f"WHERE doc_id = '{row['doc_id']}' AND attribute = 'meeting_date'"
        )
        time = system.query(
            f"SELECT value_text FROM {FACTS_TABLE} "
            f"WHERE doc_id = '{row['doc_id']}' AND attribute = 'meeting_time'"
        )
        print(f"  {row['doc_id']}: {date[0]['value_text'] if date else '?'} "
              f"{time[0]['value_text'] if time else '?'}")

    print("\n== Busiest correspondents ==")
    rows = system.query(
        f"SELECT value_text, COUNT(*) AS n FROM {FACTS_TABLE} "
        "WHERE attribute = 'sender' GROUP BY value_text ORDER BY n DESC"
    )
    for row in rows:
        print(f"  {row['value_text']}: {row['n']} messages")

    # -- Incremental, best-effort extension: a need for action items
    #    appears only now.  It is one more program: only the new
    #    extractor scans (a program naming "meetings" again would be all
    #    cache hits), and its facts land in the store like any others.
    print("\n== Incremental extension: action items ==")
    actions = RegexExtractor(pattern=r"I will (?P<action_item>[a-z ]+?) later")
    system.registry.register_extractor("actions", actions)
    report = system.generate(
        'mail = docs()\n'
        'todo = extract(mail, "actions")\n'
        'output todo'
    )
    print(f"  demanded 'action_item' later: {report.facts_stored} items "
          f"extracted, marginal cost "
          f"{report.chars_scanned * actions.cost_per_char:.0f} work units")
    for row in system.query(
            f"SELECT doc_id, value_text FROM {FACTS_TABLE} "
            "WHERE attribute = 'action_item'")[:3]:
        print(f"    {row['doc_id']}: will {row['value_text']!r}")

if __name__ == "__main__":
    main()
