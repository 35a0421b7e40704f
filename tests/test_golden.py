"""The golden corpus (``tests/golden``): every stored value is recomputed
and must come out the same, bit for bit."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).parent / "golden" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

STORED = json.loads(corpus.PATH.read_text())


def test_the_stored_corpus_has_every_section():
    assert STORED.keys() == corpus.SECTIONS.keys()


@pytest.mark.parametrize("section", sorted(corpus.SECTIONS))
def test_golden_section_is_unchanged(section):
    got = json.loads(json.dumps(corpus.SECTIONS[section]()))
    want = STORED[section]
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, (f"{len(changed)} of {len(want)} {section} entries "
                         f"changed, first {changed[:5]}")
