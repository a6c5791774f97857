"""Traced entry point: ``python perfbench/agent/pb_cli.py <repro args>``.

Runs the ``repro`` CLI in this process, as ``python -m repro`` would, with
the trace agent loaded and this process marked as the run's root. The
import of ``repro.__main__`` is timed by the agent's import spans, the
call to its ``main`` as the ``cli`` layer.
"""

import sys

import sitecustomize as agent

agent.mark_root()

import repro.__main__ as cli  # noqa: E402

sys.exit(agent.span("cli", "main", cli.main)(sys.argv[1:]))
