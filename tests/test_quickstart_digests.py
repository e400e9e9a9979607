"""The README quick-start run (`all` on the bundled fixtures) must produce
the same bytes from one change to the next. GEXF files are compared with
their `<meta>` block removed, since it carries the creation timestamp.

After a deliberate change to the outputs, refresh the golden with
``PYTHONPATH=src python3 tests/test_quickstart_digests.py``."""

import hashlib
import json
import re
import tempfile
from pathlib import Path

from scholar_sounder.cli import main

GOLDEN = Path(__file__).parent / "golden" / "quickstart_sha256.json"
FILES = [
    "notion.graphml", "coauthors.graphml", "edges_notion.csv", "edges_coauthors.csv",
    "report.json", "trace.tsv", "notion.gexf", "coauthors.gexf",
]
QUICKSTART_CONFIG = {
    "base_tags": ["physical optics"],
    "dictionary": ["optics", "optical", "photonics", "laser"],
    "fetch": {"mode": "fixture"},
}


def quickstart_digests(work: Path) -> dict[str, str]:
    config = work / "config.json"
    config.write_text(json.dumps(QUICKSTART_CONFIG), "utf-8")
    out = work / "out"
    assert main(["all", "--config", str(config), "--fixtures", "bundled", "--out", str(out)]) == 3
    digests = {}
    for name in FILES:
        data = (out / name).read_bytes()
        if name.endswith(".gexf"):
            data = re.sub(rb"\n *<meta .*?</meta>", b"", data, count=1, flags=re.S)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def test_quickstart_outputs_match_pinned_digests(tmp_path):
    assert quickstart_digests(tmp_path) == json.loads(GOLDEN.read_text("utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = quickstart_digests(Path(work))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", "utf-8")
