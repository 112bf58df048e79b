"""``python -m milsde <verb> ...``: the same command line as ``milsde``."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
