"""Golden digests: the SHA-256 of every output the shipped files produce.

A run is a pure function of (scenario, seed), so every CSV, summary and
printed report of the shipped scenarios, the shipped ``validate`` pair,
``stability`` on the shipped ring and ``roots`` on the three shipped specs
must keep its bytes from commit to commit.  A change that means to change
bytes rewrites ``golden_digests.json`` with
``PYTHONPATH=src python tests/test_golden.py`` and says why.

Summaries are hashed without ``wall_time_s`` and their output paths, which
vary from run to run.  The digests hold for the numpy version recorded with
them: numpy's distribution algorithms may change between feature releases,
so on another version the test still fails, and names each output that
differs and both versions.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from tanglesim.cli import main

_SCENARIOS = Path(__file__).parent.parent / "scenarios"
_DIGESTS = Path(__file__).parent / "golden_digests.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shipped_digests(out: Path, printed) -> dict[str, str]:
    """The digest of every shipped output, by output name, made in process
    under ``out``; ``printed()`` returns what ``main`` printed since its
    last call."""
    digests = {}
    for path in sorted(_SCENARIOS.glob("*.json")):
        if path.stem.startswith("roots_"):
            assert main(["roots", str(path)]) == 0
            digests[f"roots {path.name}"] = _sha(printed().encode())
            continue
        run_dir = out / path.stem
        assert main(["simulate", str(path), "--out", str(run_dir)]) == 0
        printed()  # the summary, with its wall time
        for f in sorted(run_dir.iterdir()):
            data = f.read_bytes()
            if f.name.endswith("_summary.json"):
                summary = json.loads(data)
                del summary["wall_time_s"], summary["outputs"]
                data = json.dumps(summary, sort_keys=True).encode()
            digests[f.name] = _sha(data)
    assert main(["stability", str(_SCENARIOS / "ring_compliance.json")]) == 0
    digests["stability ring_compliance.json"] = _sha(printed().encode())
    assert main(["validate", str(_SCENARIOS / "validation_agent.json"),
                 str(_SCENARIOS / "validation_reduced.json"), "--out", str(out)]) == 0
    printed()
    digests["validation_report.json"] = _sha((out / "validation_report.json").read_bytes())
    return digests


def test_every_shipped_output_keeps_its_bytes(tmp_path, capsys):
    golden = json.loads(_DIGESTS.read_text())
    got = shipped_digests(tmp_path, lambda: capsys.readouterr().out)
    differ = sorted(k for k in golden["digests"].keys() | got.keys()
                    if golden["digests"].get(k) != got.get(k))
    note = ("" if golden["numpy"] == np.__version__ else
            f" (digests recorded on numpy {golden['numpy']}, running {np.__version__})")
    assert not differ, f"{len(differ)} output(s) changed bytes{note}: {differ}"


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout

    buf = io.StringIO()

    def printed() -> str:
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(buf):
        digests = shipped_digests(Path(tmp), printed)
    _DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {_DIGESTS}", file=sys.stderr)
