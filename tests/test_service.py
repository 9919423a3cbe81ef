"""HTTP service tests: framework-free core everywhere, ASGI when present.

The service splits into a framework-free layer (``repro.io.query``,
``repro.service.state``, ``repro.service.jobs``) that every environment
tests, and a FastAPI shell (``repro.service.app``) that only runs where
the optional ``[service]`` extra is installed — those tests
``importorskip`` FastAPI and drive the app through the in-repo ASGI
client (:class:`repro.service.testing.AsgiClient`), no network, no
httpx.

The load-bearing contract pinned here: records appended by a service
job are **byte-identical** to the records the equivalent ``repro-dynamo``
CLI invocation appends.
"""

import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.io import WitnessDB, WitnessQueryIndex
from repro.io.query import MAX_PAGE_LIMIT, QueryError
from repro.service import ServiceUnavailableError, service_available
from repro.service.jobs import JobValidationError
from repro.service.state import ServiceState

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "results" / "witnesses.jsonl"

#: small, fast job used for the bitwise CLI-vs-service comparison
#: (seed size 3 on the 3x3 mesh finds witnesses, so records land)
SEARCH_JOB = {
    "kind": "mesh", "m": 3, "n": 3, "seed_size": 3, "colors": 3,
    "trials": 400,
}
SEARCH_CLI = [
    "search", "mesh", "3", "3", "--seed-size", "3", "--colors", "3",
    "--trials", "400",
]


#: inputs both front ends must refuse before any work starts: the
#: service with a 400 (no job queued), the CLI with a usage error
BAD_INPUTS = [
    ("census", {"batch_size": 0}),
    ("census", {"shard_size": -1}),
    ("census", {"sizes": [0]}),
    ("census", {"sizes": [3, 1]}),
    ("census", {"sizes": [2]}),
    ("census", {"trials": -1}),
    ("search", dict(SEARCH_JOB, batch_size=0)),
    ("search", dict(SEARCH_JOB, shard_size=-1)),
    ("search", dict(SEARCH_JOB, trials=-5)),
    ("search", dict(SEARCH_JOB, seed_size=0)),
    ("search", dict(SEARCH_JOB, seed_size=10)),
    ("search", dict(SEARCH_JOB, seed_size=30, exhaustive=True)),
    ("search", dict(SEARCH_JOB, m=1)),
    ("search", dict(SEARCH_JOB, colors=1)),
    ("search", dict(SEARCH_JOB, colors=0)),
    ("search", dict(SEARCH_JOB, exhaustive=True, max_configs=0)),
]
BAD_INPUT_IDS = [
    "census-batch-0", "census-shard-neg", "census-size-0",
    "census-size-1", "census-size-2", "census-trials-neg", "search-batch-0",
    "search-shard-neg", "search-trials-neg", "search-seed-0",
    "search-seed-over", "exhaustive-seed-over", "search-m-1",
    "search-colors-1", "search-colors-0", "exhaustive-max-configs-0",
]


def cli_argv(kind, body):
    """The ``repro-dynamo`` argv spelling a job body."""
    body = dict(body)
    argv = [kind]
    if kind == "search":
        argv += [body.pop("kind"), str(body.pop("m")), str(body.pop("n"))]
    for key, value in body.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        else:
            argv += [flag, str(value)]
    return argv


def wait_for(state, job_id, timeout=30.0):
    """Poll a job to a terminal state; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload = state.get_job(job_id)
        if payload["status"] in ("done", "failed", "cancelled"):
            return payload
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish within {timeout}s: {payload}")


# ---------------------------------------------------------------------------
# query layer
# ---------------------------------------------------------------------------


class TestQueryIndex:
    def test_filters_match_witnessdb(self):
        idx = WitnessQueryIndex(SHIPPED)
        db = WitnessDB(SHIPPED)
        page = idx.witnesses(kind="mesh", limit=MAX_PAGE_LIMIT)
        assert page.total == len(db.witnesses(kind="mesh"))
        assert all(item["kind"] == "mesh" for item in page.items)
        narrowed = idx.witnesses(kind="mesh", colors=4, limit=MAX_PAGE_LIMIT)
        assert narrowed.total == len(db.witnesses(kind="mesh", colors=4))

    def test_pagination_edges(self):
        idx = WitnessQueryIndex(SHIPPED)
        total = idx.witnesses(limit=1).total
        assert total > 2
        # windows tile the corpus without overlap
        first = idx.witnesses(limit=2, offset=0)
        second = idx.witnesses(limit=2, offset=2)
        ids = [i["id"] for i in first.items + second.items]
        assert len(set(ids)) == len(ids) == 4
        # an offset past the end is empty, not an error
        past = idx.witnesses(limit=5, offset=total + 10)
        assert past.items == [] and past.total == total
        # invalid windows are client errors
        with pytest.raises(QueryError):
            idx.witnesses(limit=0)
        with pytest.raises(QueryError):
            idx.witnesses(limit=MAX_PAGE_LIMIT + 1)
        with pytest.raises(QueryError):
            idx.witnesses(offset=-1)

    def test_payloads_are_on_disk_bytes(self):
        """Served items are exactly the persisted payload dicts."""
        import json

        idx = WitnessQueryIndex(SHIPPED)
        item = idx.witnesses(limit=1).items[0]
        on_disk = None
        with open(SHIPPED, encoding="utf-8") as fh:
            for line in fh:
                payload = json.loads(line)
                if payload.get("id") == item["id"]:
                    on_disk = payload  # last wins (superseding appends)
        assert on_disk == item

    def test_reload_on_file_change(self, tmp_path):
        path = tmp_path / "w.jsonl"
        idx = WitnessQueryIndex(path)
        assert idx.witnesses().total == 0  # missing file = empty corpus
        rc = cli_main(SEARCH_CLI + ["--db", str(path), "--seed", "3"])
        assert rc in (0, 1)
        assert idx.witnesses().total == len(WitnessDB(path))

    def test_census_cells(self):
        idx = WitnessQueryIndex(SHIPPED)
        page = idx.census_cells(limit=MAX_PAGE_LIMIT)
        assert page.total == len(WitnessDB(SHIPPED).cells)
        mesh = idx.census_cells(kind="mesh", limit=MAX_PAGE_LIMIT)
        assert 0 < mesh.total < page.total
        assert all(item["kind"] == "mesh" for item in mesh.items)


# ---------------------------------------------------------------------------
# framework-free state handlers
# ---------------------------------------------------------------------------


@pytest.fixture
def shipped_state():
    state = ServiceState(SHIPPED)
    yield state
    state.close()


class TestServiceState:
    def test_health(self, shipped_state):
        status, payload = shipped_state.health()
        db = WitnessDB(SHIPPED)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["witnesses"] == len(db)
        assert payload["census_cells"] == len(db.cells)

    def test_witness_filters(self, shipped_state):
        status, page = shipped_state.list_witnesses(
            {"kind": "mesh", "n": "4", "limit": "500"}
        )
        assert status == 200
        expected = WitnessDB(SHIPPED).witnesses(kind="mesh", n=4)
        assert page["total"] == len(expected)

    def test_unknown_filter_is_400(self, shipped_state):
        status, payload = shipped_state.list_witnesses({"sizes": "3"})
        assert status == 400
        assert "sizes" in payload["error"]

    def test_non_integer_filter_is_400(self, shipped_state):
        status, payload = shipped_state.list_witnesses({"n": "four"})
        assert status == 400
        assert "'n'" in payload["error"]

    def test_witness_by_id_and_404(self, shipped_state):
        wid = shipped_state.list_witnesses({"limit": "1"})[1]["items"][0]["id"]
        status, payload = shipped_state.get_witness(wid)
        assert status == 200 and payload["id"] == wid
        status, payload = shipped_state.get_witness("no-such-id")
        assert status == 404

    def test_job_endpoints_404(self, shipped_state):
        assert shipped_state.get_job("job-99")[0] == 404
        assert shipped_state.cancel_job("job-99")[0] == 404

    def test_bad_job_bodies_are_400(self, shipped_state):
        status, payload = shipped_state.submit_job("search", {"kind": "mesh"})
        assert status == 400 and "missing required parameter" in payload["error"]
        status, payload = shipped_state.submit_job("search", [1, 2])
        assert status == 400
        status, payload = shipped_state.submit_job(
            "search", dict(SEARCH_JOB, bogus=1)
        )
        assert status == 400 and "bogus" in payload["error"]
        status, payload = shipped_state.submit_job(
            "census", {"sizes": ["three"]}
        )
        assert status == 400


    @pytest.mark.parametrize("kind,body", BAD_INPUTS, ids=BAD_INPUT_IDS)
    def test_values_drivers_reject_are_400_up_front(self, tmp_path, kind, body):
        """A value the driver would reject at run time is a 400 at
        submission, not a 202 whose job fails later."""
        state = ServiceState(tmp_path / "w.jsonl", jobs_dir=tmp_path / "jobs")
        try:
            status, payload = state.submit_job(kind, body)
            assert status == 400, payload
            assert state.jobs.jobs() == []
        finally:
            state.close()

    @pytest.mark.parametrize("kind,body", BAD_INPUTS, ids=BAD_INPUT_IDS)
    def test_cli_rejects_the_same_values_as_usage_errors(
        self, tmp_path, capsys, kind, body
    ):
        """The CLI refuses every body the service refuses: exit 2 with a
        usage message, no traceback, and nothing written."""
        db = tmp_path / "w.jsonl"
        with pytest.raises(SystemExit) as exc:
            cli_main(cli_argv(kind, body) + ["--db", str(db)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert not db.exists()


# ---------------------------------------------------------------------------
# jobs: lifecycle, bitwise identity, cancellation
# ---------------------------------------------------------------------------


class TestJobs:
    def test_search_job_is_bitwise_identical_to_cli(self, tmp_path):
        cli_db = tmp_path / "cli.jsonl"
        rc = cli_main(SEARCH_CLI + ["--db", str(cli_db)])
        assert rc in (0, 1)

        state = ServiceState(tmp_path / "web.jsonl",
                             jobs_dir=tmp_path / "jobs")
        try:
            status, job = state.submit_job("search", dict(SEARCH_JOB))
            assert status == 202 and job["status"] in ("queued", "running")
            payload = wait_for(state, job["id"])
            assert payload["status"] == "done", payload.get("error")
            assert payload["result"]["examined"] == SEARCH_JOB["trials"]
            # progress came from the job's run ledger
            assert payload["progress"]["shards_committed"] >= 1
            assert payload["progress"]["runs_finished"] == 1
        finally:
            state.close()
        assert cli_db.read_bytes() == (tmp_path / "web.jsonl").read_bytes()

    def test_census_job_matches_cli(self, tmp_path):
        cli_db = tmp_path / "cli.jsonl"
        rc = cli_main(
            ["census", "--kinds", "mesh", "--sizes", "3",
             "--trials", "60", "--db", str(cli_db)]
        )
        assert rc == 0

        state = ServiceState(tmp_path / "web.jsonl",
                             jobs_dir=tmp_path / "jobs")
        try:
            status, job = state.submit_job(
                "census", {"kinds": ["mesh"], "sizes": [3], "trials": 60}
            )
            assert status == 202
            payload = wait_for(state, job["id"])
            assert payload["status"] == "done", payload.get("error")
            assert payload["result"]["run_stats"]["cells"] == 1
        finally:
            state.close()
        assert cli_db.read_bytes() == (tmp_path / "web.jsonl").read_bytes()

    def test_validation_rejects_bad_specs(self, tmp_path):
        state = ServiceState(tmp_path / "w.jsonl")
        try:
            for bad in (
                {"kind": "klein-bottle", "m": 3, "n": 3, "seed_size": 1},
                {"kind": "mesh", "m": 3, "n": 3, "seed_size": 1,
                 "rule": "no-such-rule"},
                {"kind": "mesh", "m": 3, "n": 3, "seed_size": 1,
                 "trials": "many"},
                {"kind": "mesh", "m": 3, "n": 3, "seed_size": 1,
                 "processes": -2},
            ):
                with pytest.raises(JobValidationError):
                    state.jobs.submit_search(bad)
        finally:
            state.close()

    def test_cancel_running_job(self, tmp_path):
        state = ServiceState(tmp_path / "w.jsonl",
                             jobs_dir=tmp_path / "jobs")
        try:
            # big enough to still be running when the cancel lands
            status, job = state.submit_job(
                "search",
                {"kind": "mesh", "m": 4, "n": 4, "seed_size": 3,
                 "colors": 4, "trials": 2_000_000, "batch_size": 256,
                 "shard_size": 256},
            )
            assert status == 202
            state.cancel_job(job["id"])
            payload = wait_for(state, job["id"])
            assert payload["status"] == "cancelled"
        finally:
            state.close()

    def test_cancel_queued_job(self, tmp_path):
        state = ServiceState(tmp_path / "w.jsonl")
        try:
            first = state.submit_job("search", dict(SEARCH_JOB))[1]
            second = state.submit_job("search", dict(SEARCH_JOB, seed=7))[1]
            state.cancel_job(second["id"])
            done = wait_for(state, first["id"])
            assert done["status"] in ("done", "cancelled")
            cancelled = wait_for(state, second["id"])
            assert cancelled["status"] == "cancelled"
        finally:
            state.close()


# ---------------------------------------------------------------------------
# optional-extra gating
# ---------------------------------------------------------------------------


class TestGating:
    def test_core_imports_without_fastapi(self):
        """repro.service itself must import with no extra installed."""
        import repro.service  # noqa: F401
        import repro.service.app  # noqa: F401

    def test_create_app_gates_cleanly(self):
        from repro.service import create_app

        if service_available():
            pytest.skip("fastapi installed; gating covered by no-extra CI leg")
        with pytest.raises(ServiceUnavailableError, match=r"\[service\]"):
            create_app(SHIPPED)

    def test_serve_cli_fails_cleanly(self, capsys):
        if service_available():
            pytest.skip("fastapi installed; gating covered by no-extra CI leg")
        rc = cli_main(["serve", "--db", str(SHIPPED)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "pip install 'repro-dynamo[service]'" in captured.err


# ---------------------------------------------------------------------------
# ASGI surface (needs the fastapi half of the [service] extra)
# ---------------------------------------------------------------------------


@pytest.fixture
def client(tmp_path):
    pytest.importorskip("fastapi")
    import shutil

    from repro.service import create_app
    from repro.service.testing import AsgiClient

    db = tmp_path / "w.jsonl"
    shutil.copyfile(SHIPPED, db)
    with AsgiClient(
        create_app(db, jobs_dir=tmp_path / "jobs")
    ) as asgi_client:
        yield asgi_client


class TestAsgiApp:
    def test_health(self, client):
        status, payload = client.get("/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["witnesses"] == len(WitnessDB(SHIPPED))

    def test_filtered_query_matches_corpus(self, client):
        status, page = client.get("/witnesses?kind=mesh&colors=4&limit=500")
        assert status == 200
        expected = WitnessDB(SHIPPED).witnesses(kind="mesh", colors=4)
        assert page["total"] == len(expected)
        assert {i["id"] for i in page["items"]} == {r.id for r in expected}

    def test_pagination_and_errors(self, client):
        status, first = client.get("/witnesses?limit=2")
        assert status == 200 and len(first["items"]) == 2
        status, second = client.get("/witnesses?limit=2&offset=2")
        ids = [i["id"] for i in first["items"] + second["items"]]
        assert len(set(ids)) == 4
        assert client.get("/witnesses?limit=0")[0] == 400
        assert client.get("/witnesses?bogus=1")[0] == 400
        assert client.get("/witnesses/no-such-id")[0] == 404
        assert client.get("/census-cells?kind=mesh")[0] == 200

    def test_job_lifecycle_appends_cli_identical_records(
        self, client, tmp_path
    ):
        cli_db = tmp_path / "cli-ref.jsonl"
        import shutil

        shutil.copyfile(SHIPPED, cli_db)
        rc = cli_main(SEARCH_CLI + ["--db", str(cli_db)])
        assert rc in (0, 1)

        status, job = client.post("/jobs/search", json=SEARCH_JOB)
        assert status == 202
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, payload = client.get(f"/jobs/{job['id']}")
            if payload["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert payload["status"] == "done", payload.get("error")
        assert (
            cli_db.read_bytes()
            == (tmp_path / "w.jsonl").read_bytes()
        )

    def test_job_validation_and_404(self, client):
        assert client.post("/jobs/search", json={})[0] == 400
        assert client.post("/jobs/search", body=b"not json")[0] == 400
        assert client.get("/jobs/job-99")[0] == 404
        status, payload = client.delete("/jobs/job-99")
        assert status == 404
