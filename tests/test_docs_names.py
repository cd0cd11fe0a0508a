"""Every test file and every ``repro`` name the docs cite must exist."""

import glob
import importlib
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DOCS = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))) + [
    os.path.join(ROOT, "README.md"),
    os.path.join(ROOT, ".claude", "skills", "verify", "SKILL.md")]


def _resolves(dotted):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("path", DOCS, ids=os.path.basename)
def test_every_cited_test_file_and_repro_name_resolves(path):
    with open(path) as handle:
        text = handle.read()
    missing = [name for name in sorted(set(re.findall(
        r"\btests/[\w/]+\.py\b", text))) if not os.path.exists(
            os.path.join(ROOT, name))]
    missing += [name for name in sorted(set(re.findall(
        r"\brepro(?:\.\w+)+", text))) if not _resolves(name)]
    assert not missing, f"{path} cites what does not exist: {missing}"
