"""``python -m seirsde``: the command-line interface of ``seirsde.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
