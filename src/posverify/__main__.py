"""``python -m posverify``: the ``posverify`` command."""

import sys

from .cli import main

sys.exit(main())
