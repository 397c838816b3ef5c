"""Dataset versions over HTTP: append route, optimistic concurrency, stamping."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import Session
from repro.notebook.ipynb import to_ipynb_json

from tests.serve.conftest import http_request

ROWS = [
    {"month": "4", "continent": "EU", "country": "FR",
     "cases": 123.0, "deaths": 3.0},
    {"month": "5", "continent": "ZZ", "country": "QQ",
     "cases": 7.0, "deaths": 0.0},
]


def http_with_headers(url, method="GET", body=None, timeout=30.0):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


@pytest.fixture()
def server(make_server):
    return make_server()


def wait_done(base, job):
    code, body = http_request(f"{base}/jobs/{job}?wait=30")
    assert code == 200 and body["status"] in ("completed", "degraded"), body
    return body


class TestDatasetSnapshot:
    def test_get_dataset_reports_version(self, server):
        code, body = http_request(f"{server.url}/datasets/covid")
        assert code == 200
        assert body["rows"] == 200
        assert body["version"] and "-" in body["version"]

    def test_unknown_dataset_404(self, server):
        code, _ = http_request(f"{server.url}/datasets/nope")
        assert code == 404


class TestAppendRoute:
    def test_append_advances_version_and_counts(self, server):
        base = server.url
        _, before = http_request(f"{base}/datasets/covid")
        code, body = http_request(
            f"{base}/datasets/covid/rows", "POST", {"rows": ROWS}
        )
        assert code == 200, body
        assert body["appended"] == 2 and body["rows"] == 202
        assert body["version"] != before["version"]
        _, after = http_request(f"{base}/datasets/covid")
        assert after["version"] == body["version"] and after["rows"] == 202

    def test_column_mapping_form(self, server):
        code, body = http_request(
            f"{server.url}/datasets/covid/rows", "POST",
            {"rows": {"month": ["6"], "continent": ["EU"], "country": ["FR"],
                      "cases": [1.0], "deaths": [0.0]}},
        )
        assert code == 200 and body["appended"] == 1, body

    def test_bad_appends_are_400(self, server):
        base = server.url
        for rows in ([], [{"month": "4"}], "not-rows",
                     [{"month": "4"}, {"continent": "EU"}]):
            code, body = http_request(
                f"{base}/datasets/covid/rows", "POST", {"rows": rows}
            )
            assert code == 400, (rows, code, body)

    def test_append_to_unknown_dataset_404(self, server):
        code, _ = http_request(
            f"{server.url}/datasets/nope/rows", "POST", {"rows": ROWS}
        )
        assert code == 404


class TestOptimisticConcurrency:
    def test_stale_if_version_is_machine_readable_409(self, server):
        base = server.url
        _, info = http_request(f"{base}/datasets/covid")
        code, body = http_request(
            f"{base}/generate", "POST",
            {"dataset": "covid", "if_version": "bogus"},
        )
        assert code == 409
        assert body["code"] == "stale_version"
        assert body["version"] == info["version"]
        assert body["requested"] == "bogus"

    def test_matching_if_version_admits_and_stamps(self, server):
        base = server.url
        _, info = http_request(f"{base}/datasets/covid")
        v0 = info["version"]
        code, body = http_request(
            f"{base}/generate", "POST", {"dataset": "covid", "if_version": v0}
        )
        assert code == 202, body
        done = wait_done(base, body["job"])
        assert done["dataset_version"] == v0
        code, _, headers = http_with_headers(f"{base}/jobs/{body['job']}/result")
        assert code == 200
        assert headers.get("X-Dataset-Version") == v0

    def test_append_staleness_rejects_old_version(self, server):
        base = server.url
        _, info = http_request(f"{base}/datasets/covid")
        v0 = info["version"]
        http_request(f"{base}/datasets/covid/rows", "POST", {"rows": ROWS})
        code, body = http_request(
            f"{base}/generate", "POST", {"dataset": "covid", "if_version": v0}
        )
        assert code == 409 and body["code"] == "stale_version"


class TestAppendDuringJob:
    def test_running_job_keeps_its_snapshot(self, server):
        base = server.url
        _, info = http_request(f"{base}/datasets/covid")
        v0 = info["version"]
        code, body = http_request(
            f"{base}/generate", "POST", {"dataset": "covid"}
        )
        assert code == 202
        job = body["job"]
        # Append races the running job: the mutation must neither fail nor
        # corrupt the job, which reports the version it actually ran at.
        code, appended = http_request(
            f"{base}/datasets/covid/rows", "POST", {"rows": ROWS}
        )
        assert code == 200, appended
        v1 = appended["version"]
        done = wait_done(base, job)
        assert done["dataset_version"] in (v0, v1)

    def test_generate_after_append_runs_on_grown_table(self, server):
        base = server.url
        code, appended = http_request(
            f"{base}/datasets/covid/rows", "POST", {"rows": ROWS}
        )
        assert code == 200
        code, body = http_request(
            f"{base}/generate", "POST", {"dataset": "covid"}
        )
        assert code == 202
        done = wait_done(base, body["job"])
        assert done["dataset_version"] == appended["version"]


def job_counters(base, job):
    code, trace = http_request(f"{base}/jobs/{job}/trace")
    assert code == 200
    return trace["otherData"]["metrics"]["counters"]


def generate_and_wait(base):
    code, body = http_request(f"{base}/generate", "POST", {"dataset": "covid"})
    assert code == 202, body
    job = body["job"]
    assert wait_done(base, job)["status"] == "completed"
    return job


class TestIncrementalJobs:
    """Jobs run from the dataset session's held stats memo."""

    def test_second_job_at_one_version_retests_nothing(self, server):
        base = server.url
        first = generate_and_wait(base)
        second = generate_and_wait(base)
        assert job_counters(base, first).get("stats.partitions_skipped", 0) == 0
        counters = job_counters(base, second)
        assert counters.get("stats.partitions_retested", 0) == 0
        assert counters["stats.partitions_skipped"] > 0
        _, one = http_request(f"{base}/jobs/{first}/result")
        _, two = http_request(f"{base}/jobs/{second}/result")
        assert one == two

    def test_job_after_append_equals_a_cold_replay(self, server, serve_csv,
                                                   fast_config):
        base = server.url
        generate_and_wait(base)
        code, _ = http_request(f"{base}/datasets/covid/rows", "POST", {"rows": ROWS})
        assert code == 200
        job = generate_and_wait(base)
        counters = job_counters(base, job)
        assert counters["stats.partitions_skipped"] > 0
        assert counters["stats.partitions_retested"] > 0
        _, served = http_request(f"{base}/jobs/{job}/result")
        columns = {name: [row[name] for row in ROWS] for name in ROWS[0]}
        with Session(serve_csv, config=fast_config, table_name="covid") as session:
            session.append(columns)
            cold = json.loads(to_ipynb_json(session.render(session.generate())))
        assert served == cold
