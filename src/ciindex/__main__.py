"""``python -m ciindex``, the same as the ``ciindex`` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
