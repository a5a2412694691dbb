import sys

from .cli import console

sys.exit(console())
