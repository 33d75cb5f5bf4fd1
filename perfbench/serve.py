"""Launcher of a traced gateway server.

Installs the layer-timing wrappers of ``layers.py`` in this process,
then hands its arguments to the program's own ``serve`` command line:

    PYTHONPATH=src python3 perfbench/serve.py serve --port 0 ...

Pool workers fork from this process and keep the wrappers; their layer
times come home through ``/metrics``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    from repro.service.__main__ import main as serve_main

    layers.install()
    return serve_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
