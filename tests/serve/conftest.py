"""Shared fixtures for the serving-layer tests.

Serve tests run against real servers on ephemeral ports with a small,
fast ``ReproConfig`` so a full generate takes well under a second.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.config import ReproConfig
from repro.datasets import covid_table
from repro.relational import write_csv
from repro.serve import ReproServer, ServeConfig

__all__ = ["http_request"]


@pytest.fixture(scope="session")
def serve_csv(tmp_path_factory):
    """A small covid CSV shared by every serve test."""
    path = tmp_path_factory.mktemp("serve") / "covid.csv"
    write_csv(covid_table(200), path)
    return path


@pytest.fixture()
def fast_config():
    """A ReproConfig that keeps each generate under ~0.3 s."""
    return ReproConfig(budget=3.0).with_significance(n_permutations=30)


@pytest.fixture()
def make_server(serve_csv, fast_config):
    """Factory for started servers on ephemeral ports; auto-shutdown."""
    servers = []

    def factory(config: ServeConfig | None = None, *, faults=None,
                register: str | None = "covid") -> ReproServer:
        server = ReproServer(
            config or ServeConfig(port=0),
            repro_config=fast_config,
            faults=faults,
        )
        server.start()
        servers.append(server)
        if register:
            server.registry.register(register, serve_csv)
        return server

    yield factory
    for server in servers:
        server.shutdown()


def http_request(url: str, method: str = "GET", body: dict | None = None,
                 timeout: float = 30.0) -> tuple[int, dict | str]:
    """One HTTP round-trip; returns (status, parsed-JSON-or-text)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read().decode()
            code = response.status
    except urllib.error.HTTPError as exc:  # 4xx/5xx still carry a JSON body
        raw = exc.read().decode()
        code = exc.code
    try:
        return code, json.loads(raw)
    except json.JSONDecodeError:
        return code, raw
