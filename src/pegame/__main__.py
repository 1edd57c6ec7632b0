"""``python -m pegame``: the ``pegame`` command line."""
import sys

from .cli import main

sys.exit(main())
