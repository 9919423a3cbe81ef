"""HTTP serving layer for the witness corpus (optional ``[service]`` extra).

``repro.service`` puts the witness database behind a small read-mostly
HTTP API so a browser, notebook, or collaborator can query the corpus
and launch the existing drivers without shelling into the repo:

* ``GET /health`` — liveness plus corpus summary;
* ``GET /witnesses`` / ``GET /census-cells`` — filtered, paginated
  views served through :class:`repro.io.WitnessQueryIndex` (responses
  are the exact on-disk JSONL payloads);
* ``GET /witnesses/{id}`` — one record in full;
* ``POST /jobs/search`` / ``POST /jobs/census`` — launch
  :func:`repro.core.search.random_dynamo_search` /
  :func:`repro.experiments.census.below_bound_census` as background
  jobs whose appended records are **bitwise-identical** to what the
  ``repro-dynamo`` CLI would have written (same defaults, same
  definitions — the service is just another front-end);
* ``GET /jobs/{id}`` — job status with shard-level progress fed from
  the job's run ledger; ``DELETE /jobs/{id}`` cancels cooperatively.

The package splits framework-free from framework-bound code:
:mod:`repro.service.state` and :mod:`repro.service.jobs` import no HTTP
stack and are importable (and testable) everywhere, while
:mod:`repro.service.app` gates its FastAPI/uvicorn imports behind
:func:`service_available` and raises :class:`ServiceUnavailableError`
with an install hint when the extra is missing.
"""

from __future__ import annotations

from .app import (
    ServiceUnavailableError,
    create_app,
    run_server,
    service_available,
)
from .jobs import Job, JobManager
from .state import ServiceState

__all__ = [
    "Job",
    "JobManager",
    "ServiceState",
    "ServiceUnavailableError",
    "create_app",
    "run_server",
    "service_available",
]
