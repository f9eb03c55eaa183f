"""Print what ``import k3acm.cli`` costs a fresh interpreter, per module.

Usage: python3 tools/import_cost.py [N] [ROOT]

ROOT is a checkout of this repository; it defaults to the one holding
this script, and the package is imported from ROOT/src.  The script runs
``python3 -S -X importtime -c "import k3acm.cli"`` once to write the
bytecode, then N more times (default 9), each in a fresh interpreter with
PYTHONDONTWRITEBYTECODE removed from its environment.  It prints the
median cumulative time of ``k3acm.cli``, then the median self time of
each ``k3acm`` module and their sum, in microseconds, slowest first.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path


def _import_times(src: Path) -> dict[str, tuple[int, int]]:
    """{module: (self us, cumulative us)} of one fresh ``import k3acm.cli``."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import k3acm.cli"],
        env=env, capture_output=True, text=True, check=True)
    times = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = (int(fields[0]), int(fields[1]))
    return times


def main(argv: list[str]) -> int:
    runs = int(argv[0]) if argv else 9
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    _import_times(root / "src")  # writes the bytecode the timed runs read
    samples = [_import_times(root / "src") for _ in range(runs)]
    cumulative = statistics.median(s["k3acm.cli"][1] for s in samples)
    print(f"{cumulative:9.0f} us  k3acm.cli cumulative "
          f"(median of {runs} runs)")
    own = {m for s in samples for m in s
           if m == "k3acm" or m.startswith("k3acm.")}
    self_us = {m: statistics.median(s.get(m, (0, 0))[0] for s in samples)
               for m in own}
    for module in sorted(own, key=lambda m: (-self_us[m], m)):
        print(f"{self_us[module]:9.0f} us  {module} self")
    print(f"{sum(self_us.values()):9.0f} us  k3acm modules' self, summed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
