"""``python -m dualdense``: the command line of ``cli``, through
``cli.run``, which ends the process once the output is flushed."""

from .cli import run

if __name__ == "__main__":
    run()
