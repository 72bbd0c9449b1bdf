"""``python -m qadhm ...``: the same entry point as the ``qadhm`` script."""

from .cli import main

if __name__ == "__main__":
    main()
