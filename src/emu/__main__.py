"""``python -m emu``: the ``emu`` command line."""
from .cli import main

main()
