"""python -m polydiv: the polydiv command line."""
import sys

from .cli import main

sys.exit(main())
