"""Docs stay honest: every documented CLI invocation must parse.

Runs the docs checker family CI uses (``python -m tools.reprolint src
--select docs``) over README.md and docs/*.md, plus unit tests of its
extractor so a silent regression in the checker itself (finding
nothing, mis-joining continuations) also fails loudly.
"""

from pathlib import Path

from tools.reprolint import lint_project
from tools.reprolint.docs import (
    check_invocation,
    extract_invocations,
    iter_doc_files,
)

ROOT = Path(__file__).resolve().parent.parent


def test_extractor_joins_continuations_and_cuts_pipes():
    text = "\n".join([
        "prose repro-dynamo outside a fence is ignored",
        "```bash",
        "repro-dynamo census --kinds mesh cordalis \\",
        "  --sizes 3 4 --processes 2",
        "$ repro-dynamo witness list | head -3",
        "python not-a-cli-line.py",
        "```",
    ])
    got = list(extract_invocations(text))
    assert got == [
        (3, "repro-dynamo census --kinds mesh cordalis --sizes 3 4 --processes 2"),
        (5, "repro-dynamo witness list"),
    ]


def test_checker_flags_stale_flags():
    from repro.cli import build_parser

    parser = build_parser()
    assert check_invocation(parser, "repro-dynamo census --db x.jsonl") is None
    assert check_invocation(parser, "repro-dynamo census --no-such-flag") is not None
    assert check_invocation(parser, "repro-dynamo witness verify --all") is None


def test_all_documented_invocations_parse():
    findings, _ = lint_project(ROOT, ["src"], select=["docs"])
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
    )
    # the extractor found a healthy number of commands (README quickstart
    # alone documents a dozen); zero would mean it silently broke
    found = sum(
        len(list(extract_invocations(doc.read_text(encoding="utf-8"))))
        for doc in iter_doc_files(ROOT)
        if doc.exists()
    )
    assert found >= 10
