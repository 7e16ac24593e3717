"""Tests for the BaseWebServer contract helpers."""

import pytest

from repro.webservers.base import BaseWebServer


class MinimalServer(BaseWebServer):
    name = "minimal"
    version = "1.0"

    def startup(self, ctx):
        pass

    def handle(self, ctx, request):
        return self.error_response(503)


def test_document_path_mapping():
    server = MinimalServer()
    assert server.document_path("/a/b") == "/site/a/b"
    assert server.document_path("a/b") == "/site/a/b"


def test_derived_paths_from_name():
    server = MinimalServer()
    assert server.config_path == "/etc/minimal.conf"
    assert server.access_log_path == "/logs/minimal_access.log"
    assert server.post_log_path == "/logs/minimal_post.log"


def test_error_response_carries_identity():
    response = MinimalServer().error_response(502, detail="upstream")
    assert response.status_code == 502
    assert response.server_name == "minimal/1.0"
    assert response.error_detail == "upstream"


def test_reset_process_state_clears_counters():
    server = MinimalServer()
    server.requests_served = 99
    server.reset_process_state()
    assert server.requests_served == 0


def test_base_class_requires_overrides():
    base = BaseWebServer()
    with pytest.raises(NotImplementedError):
        base.startup(None)
    with pytest.raises(NotImplementedError):
        base.handle(None, None)


def test_repr_mentions_policy():
    text = repr(MinimalServer())
    assert "minimal" in text
    assert "self_restart" in text
