"""`python -m octicount COMMAND ...` runs a command, as the `octicount` script does."""
from .cli import main

if __name__ == "__main__":
    main()
