"""ASGI application factory — the only module that touches FastAPI.

Optional-dependency pattern: module import is always
safe (no HTTP stack at module scope), availability is probed with
:func:`service_available`, and the gated imports happen inside
:func:`create_app` / :func:`run_server`, raising
:class:`ServiceUnavailableError` with a pip hint when the ``[service]``
extra is missing.

The app itself is a thin routing shell: every endpoint delegates to a
:class:`~repro.service.state.ServiceState` method and wraps its
``(status, payload)`` return in a ``JSONResponse``.  The state is
created on lifespan startup and closed (job worker drained) on
shutdown, so one server process owns one witnessdb writer queue.
"""

from __future__ import annotations

from importlib.util import find_spec
from pathlib import Path
from typing import Any, Optional, Union

from .. import obs

__all__ = [
    "ServiceUnavailableError",
    "create_app",
    "run_server",
    "service_available",
]

PathLike = Union[str, Path]

#: the one message every missing-extra failure carries, so users always
#: see the same actionable hint
_MISSING_SERVICE = (
    "the HTTP service requires the optional [service] extra "
    "(FastAPI + uvicorn), which is not installed; "
    "install it with: pip install 'repro-dynamo[service]'"
)


class ServiceUnavailableError(RuntimeError):
    """The ``[service]`` extra (FastAPI/uvicorn) is not installed."""


def service_available() -> bool:
    """Cheap availability probe — true when FastAPI is importable."""
    return find_spec("fastapi") is not None


def create_app(db_path: PathLike, jobs_dir: Optional[PathLike] = None):
    """Build the ASGI app serving one witness database.

    Raises :class:`ServiceUnavailableError` when FastAPI is missing;
    uvicorn is only needed by :func:`run_server`, so test clients can
    drive the returned app without it.
    """
    if not service_available():
        raise ServiceUnavailableError(_MISSING_SERVICE)
    from contextlib import asynccontextmanager

    from fastapi import FastAPI, Request
    from fastapi.responses import JSONResponse

    from .state import ServiceState

    @asynccontextmanager
    async def lifespan(app: "FastAPI"):
        app.state.service = ServiceState(db_path, jobs_dir)
        try:
            yield
        finally:
            app.state.service.close()

    app = FastAPI(
        title="repro-dynamo witness service",
        description="query the dynamo witness corpus and launch driver jobs",
        lifespan=lifespan,
    )

    def respond(result) -> JSONResponse:
        status, payload = result
        return JSONResponse(status_code=status, content=payload)

    @app.get("/health")
    async def health(request: Request) -> JSONResponse:
        obs.count("service.health")
        return respond(request.app.state.service.health())

    @app.get("/witnesses")
    async def witnesses(request: Request) -> JSONResponse:
        return respond(
            request.app.state.service.list_witnesses(
                dict(request.query_params)
            )
        )

    @app.get("/witnesses/{witness_id}")
    async def witness(request: Request, witness_id: str) -> JSONResponse:
        return respond(request.app.state.service.get_witness(witness_id))

    @app.get("/census-cells")
    async def census_cells(request: Request) -> JSONResponse:
        return respond(
            request.app.state.service.list_census_cells(
                dict(request.query_params)
            )
        )

    @app.post("/jobs/search")
    async def submit_search(request: Request) -> JSONResponse:
        return respond(
            request.app.state.service.submit_job(
                "search", await _json_body(request)
            )
        )

    @app.post("/jobs/census")
    async def submit_census(request: Request) -> JSONResponse:
        return respond(
            request.app.state.service.submit_job(
                "census", await _json_body(request)
            )
        )

    @app.get("/jobs/{job_id}")
    async def job_status(request: Request, job_id: str) -> JSONResponse:
        return respond(request.app.state.service.get_job(job_id))

    @app.delete("/jobs/{job_id}")
    async def job_cancel(request: Request, job_id: str) -> JSONResponse:
        return respond(request.app.state.service.cancel_job(job_id))

    async def _json_body(request: Request) -> Any:
        body = await request.body()
        if not body:
            return {}
        import json

        try:
            return json.loads(body)
        except ValueError:
            # a non-dict value; the state layer answers 400 for it
            return "<invalid json>"

    return app


def run_server(
    db_path: PathLike,
    *,
    host: str = "127.0.0.1",
    port: int = 8711,
    jobs_dir: Optional[PathLike] = None,
) -> None:
    """Serve the app with uvicorn (blocking).

    Raises :class:`ServiceUnavailableError` when either half of the
    ``[service]`` extra is missing.
    """
    if find_spec("uvicorn") is None:
        raise ServiceUnavailableError(_MISSING_SERVICE)
    import uvicorn

    uvicorn.run(
        create_app(db_path, jobs_dir),
        host=host,
        port=port,
        log_level="warning",
    )
