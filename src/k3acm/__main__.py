"""``python3 -m k3acm``: the k3acm command line, as ``k3acm.cli`` runs it."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
