"""Every demo script runs to completion and prints what it printed when
pinned, search rates (`rate=<n>/s`) aside."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIGESTS = {  # sha256 of stdout with each rate=<digits>/s read as rate=N/s
    "01_graph_states_and_cuts.py": "0d0d3dc8670565e94a359d10a645cd8aa06372f6f0ac266d3abc9015a3443444",
    "02_ame_certification.py": "bcac228a2188f140c20b8c02a624b8b77c63f73f118e165ffb3b12d7c54b4af0",
    "03_local_clifford_rewrites.py": "ea63025f7203af1e20b27c0abc7a7a8ccb8a4a3b6ef9ae8abb4f54a34e2d650b",
    "04_codes_to_graphs.py": "4491cb97b80b911fbf01f652c8244c5443fa76e2f0fd899a69f06787124afa64",
    "05_search.py": "ea58227eea5ee718caa2e95c27b681946cafa1974e85e1a1fb8d59d33bd8f4ba",
    "06_secret_sharing.py": "8e52e1c8f10629568d3e3569c607f3655ec9d839ce79c0351d9efb072eb9ac50",
    "07_composite_dimensions.py": "5a6a0cf8c398e591c653f677d7fd01e4bef1aaba4d0219a63fedd33f5cc75d32",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    out = re.sub(r"rate=\d+/s", "rate=N/s", done.stdout)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[demo.name], out
