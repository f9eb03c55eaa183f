"""Print what a cold ``k3acm theorem`` costs, next to the interpreter's own
start-up.

Usage: python3 tools/cold_start.py [N] [ROOT]

ROOT is a checkout of this repository; it defaults to the one holding
this script.  Every run starts in ROOT and imports the package from
ROOT/src.  The script runs ``python3 -m k3acm theorem`` once to write the
bytecode, then N rounds (default 9, at most 25), each running
``python3 -m k3acm theorem``, ``python3 -c pass`` and
``python3 -S -c pass`` once in that order, each in a fresh interpreter
with PYTHONDONTWRITEBYTECODE removed from its environment, so every run
reads the bytecode the first one wrote.  It prints the median wall time
of each command over the N rounds, in milliseconds.  A run that does not
exit 0 stops the script: it prints that run's stderr and exits 1.  An N
below 1, above 25 or not an integer, a ROOT that holds no
``src/k3acm/__init__.py``, ``--help`` or a third argument print the
usage line to stderr and exit 2.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

MAX_RUNS = 25
COMMANDS = (("-m", "k3acm", "theorem"), ("-c", "pass"), ("-S", "-c", "pass"))


def _wall_ms(args: tuple[str, ...], root: Path, env: dict[str, str]) -> float:
    """Wall time of one fresh ``python3 ARGS`` in root, in milliseconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return (time.perf_counter() - start) * 1e3


def main(argv: list[str]) -> int:
    runs = argv[0] if argv else "9"
    root = Path(argv[1] if len(argv) > 1 else __file__).resolve()
    if len(argv) < 2:
        root = root.parents[1]
    if (len(argv) > 2 or not runs.isdecimal()
            or not 1 <= int(runs) <= MAX_RUNS
            or not (root / "src" / "k3acm" / "__init__.py").is_file()):
        print(f"usage: python3 tools/cold_start.py [N] [ROOT]  (1 <= N <= "
              f"{MAX_RUNS}; ROOT holds src/k3acm/__init__.py)",
              file=sys.stderr)
        return 2
    runs = int(runs)
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(root / "src")
    try:
        _wall_ms(COMMANDS[0], root, env)  # writes the bytecode read below
        samples = [[_wall_ms(args, root, env) for args in COMMANDS]
                   for _ in range(runs)]
    except subprocess.CalledProcessError as exc:
        print(f"{' '.join(exc.cmd)} exited {exc.returncode}:\n"
              f"{exc.stderr.decode(errors='replace')}", file=sys.stderr,
              end="")
        return 1
    for k, args in enumerate(COMMANDS):
        median = statistics.median(s[k] for s in samples)
        print(f"{median:8.1f} ms  python3 {' '.join(args)}"
              + (f" (median of {runs} runs)" if k == 0 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
