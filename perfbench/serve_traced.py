"""``python3 -m perfbench.serve_traced <span-dir> <serve args>``.

Runs the ``repro.serve`` daemon with the benchmark's spans installed.
A request's spans carry the client's ``X-Request-Id``, and work sent to
the pool runs as a child of the daemon span that sent it.  Each process
(the daemon and every pool worker it forks) writes its spans to
``<span-dir>`` when it exits.
"""

from __future__ import annotations

import functools
import pathlib
import sys

from perfbench.tracer import Tracer

#: The daemon's tracer; pool workers inherit it when they fork.
TRACER: Tracer


def _in_context(context, fn, *args):
    """Pool-side: run ``fn`` as a child of the daemon span that sent it."""
    with TRACER.adopted(context):
        return fn(*args)


def main(argv: list[str]) -> int:
    global TRACER
    tracer = TRACER = Tracer(pathlib.Path(argv[0])).install()
    from repro.serve import __main__ as serve_main
    from repro.serve.app import ServeApp
    from repro.serve.queue import JobQueue

    execute = ServeApp._execute

    def execute_in_context(app, fn, *args):
        return execute(app, functools.partial(_in_context, tracer.context(), fn), *args)

    ServeApp._execute = execute_in_context

    job_requests: dict[int, str] = {}
    submit = JobQueue.submit

    def submit_noting_request(queue, job, *args, **kwargs):
        job_requests[job.id] = tracer.context()[1]
        return submit(queue, job, *args, **kwargs)

    JobQueue.submit = submit_noting_request
    tracer.wrap(
        ServeApp, "_route", "serve.route",
        request_of=lambda args, _kw: args[1].headers.get("x-request-id"),
    )
    for attribute in ("_run_sweep", "_run_fuzz"):
        tracer.wrap(
            ServeApp, attribute, "serve.job",
            request_of=lambda args, _kw: job_requests.get(args[1].id),
        )
    try:
        return serve_main.main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
