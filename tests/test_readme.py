"""The Python examples of README.md run as written."""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the last block is the three-parameter example: (pi^2, 0, 0) first
    lam, mu, nu = namespace["res"].registry[0].values
    assert abs(lam - math.pi ** 2) <= 1e-8
    assert abs(mu) <= 1e-8 and abs(nu) <= 1e-8
