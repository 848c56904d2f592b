"""`python -m qinv`: the qinv command line."""

from .cli import main

main()
