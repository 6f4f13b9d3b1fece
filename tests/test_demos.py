"""Each demo's standard output, pinned by its sha256.

The demos print exact values (the q-congruence walkthrough prints a whole
cleared sum), so a change that keeps every result keeps these bytes. A
demo added without a pin fails here until its hash is recorded.
"""
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "cyclotomic_tour.py":
        "539629c68ea2ba49d76b59cdfcd3b4d213ea892a2c4e511dfc7f08119775df64",
    # re-taken when the conjectured sum's description was corrected
    "divisible_sums.py":
        "f535a282dfbabfe03ada137b0119988cd6ed771e65f9419b8aa666d5ef81e1ba",
    "factored_pochhammer.py":
        "30b735e2976e9e8a1186278d2d7b3efd11270277997acb2e33b33ebf339ee877",
    "q_congruence_walkthrough.py":
        "ae63553812325e1ed4af7f9b7ee72dd3d053f8b05a54e8fd1bb33e68d626e9ae",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("*.py")))
def test_demo_output_pinned(demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (
        os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[demo]
