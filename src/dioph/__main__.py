"""`python -m dioph ...` runs the `dioph` command (with `src` on the path, no install needed)."""

from .cli import main

if __name__ == "__main__":
    main()
