import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def rule_walks(monkeypatch):
    """The text of every walk of the rule engine's stage tree, in order."""
    from rweets import rules

    walked = []
    walk = rules._walk

    def counted(text, *forests):
        walked.append(text)
        return walk(text, *forests)

    monkeypatch.setattr(rules, "_walk", counted)
    return walked
