"""``python -m hilbstrat``: the command-line report, as the ``hilbstrat`` script."""

import sys

from .report_cli import main

if __name__ == "__main__":
    sys.exit(main())
