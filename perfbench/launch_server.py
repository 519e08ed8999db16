"""Start ``repro.service`` with the benchmark's probes installed.

Usage::

    python3 perfbench/launch_server.py OUT.json [repro.service flags...]

The probes wrap the server's public layer functions from outside (see
``probes.py``).  ``SIGUSR1`` clears the aggregates, so set-up traffic can be
dropped before the timed phase; on shutdown (``SIGINT``) the aggregates are
written to ``OUT.json``.
"""

from __future__ import annotations

import json
import signal
import sys

from probes import Probe, install_compiler, install_server


def main(argv: list[str]) -> int:
    output, service_args = argv[0], argv[1:]
    from repro.service.__main__ import main as service_main

    probe = Probe()
    install_server(probe)
    install_compiler(probe)
    signal.signal(signal.SIGUSR1, lambda *_: probe.reset())
    try:
        return service_main(service_args)
    finally:
        with open(output, "w") as handle:
            json.dump(probe.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
