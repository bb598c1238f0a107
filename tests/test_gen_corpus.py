"""The corpus generator reproduces the packaged corpus (no files written)."""

import json
import runpy
import sys
from pathlib import Path

from hamfix.toric import corpus_dir

GEN_CORPUS = Path(__file__).resolve().parent.parent / "tools" / "gen_corpus.py"


def test_generator_rebuilds_packaged_corpus(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    packaged = corpus_dir()
    tool = runpy.run_path(str(GEN_CORPUS), run_name="gen_corpus")
    index = []
    for name, verts, xi, row in tool["SPECS"]:
        poly, entry = tool["build"](name, verts, xi, row)
        stored = json.loads((packaged / entry["file"]).read_text(encoding="utf-8"))
        assert poly.to_dict() == stored, name
        index.append(entry)
    assert len(index) == 14
    assert index == json.loads((packaged / "index.json").read_text(encoding="utf-8"))
