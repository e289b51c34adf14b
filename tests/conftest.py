import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def rule_walks(monkeypatch):
    """Every text the rule engine matches, in order."""
    from rweets import rules

    walked = []
    match = rules._match

    def counted(texts, roots):
        walked.extend(texts)
        return match(texts, roots)

    monkeypatch.setattr(rules, "_match", counted)
    return walked
