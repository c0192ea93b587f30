"""``python -m robinwall``: the command-line front end of :mod:`robinwall.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
