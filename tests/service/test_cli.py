"""Tests for the service-facing CLI surface.

``version`` / ``--json`` listing modes share one serialiser with the
HTTP endpoints (asserted against :mod:`repro.service.serialize`
directly), ``store migrate`` moves entries between backends from the
command line, and ``serve`` — run as a real subprocess — drains its
in-flight jobs on SIGTERM and exits 0.
"""

import json
import os
import signal
import subprocess
import sys

from repro.__main__ import main
from repro.harness.store import open_store
from repro.service.serialize import (
    schemes_payload,
    suites_payload,
    version_payload,
)
from tests.harness.test_store import make_result


class TestVersion:
    def test_human_output_names_the_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "repro 1." in out
        assert "store backends:  json, sqlite" in out

    def test_json_output_is_the_health_payload(self, capsys):
        assert main(["version", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == version_payload()


class TestJsonListings:
    def test_suites_json_matches_the_service_serialiser(self, capsys):
        assert main(["suites", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == suites_payload()

    def test_schemes_json_matches_the_service_serialiser(self, capsys):
        assert main(["schemes", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == schemes_payload()

    def test_machines_json_resolves_back_through_the_facade(self, capsys):
        from repro import api
        assert main(["machines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for entry in payload:
            config = api.resolve_machine(entry["machine"])
            assert config.num_cores == entry["num_cores"]

    def test_text_mode_is_unchanged(self, capsys):
        assert main(["suites"]) == 0
        assert "spec_int" in capsys.readouterr().out


class TestStoreMigrate:
    def test_json_to_sqlite_via_cli(self, tmp_path, capsys):
        source = open_store(tmp_path / "src", backend="json")
        source.put("k1", make_result(cycles=1))
        source.put("k2", make_result(cycles=2))
        assert main(["store", "migrate", str(tmp_path / "src"),
                     str(tmp_path / "dst"), "--dest-backend",
                     "sqlite"]) == 0
        assert "migrated 2 entries" in capsys.readouterr().out
        dest = open_store(tmp_path / "dst")
        assert dest.get("k1") == make_result(cycles=1)
        assert dest.describe().startswith("sqlite:")

    def test_sqlite_to_json_via_cli(self, tmp_path, capsys):
        source = open_store(tmp_path / "src", backend="sqlite")
        source.put("k", make_result())
        assert main(["store", "migrate", str(tmp_path / "src"),
                     str(tmp_path / "dst")]) == 0
        dest = open_store(tmp_path / "dst")
        assert dest.get("k") == make_result()
        assert dest.describe().startswith("json:")

    def test_same_store_is_refused(self, tmp_path, capsys):
        open_store(tmp_path / "s").put("k", make_result())
        assert main(["store", "migrate", str(tmp_path / "s"),
                     str(tmp_path / "s")]) == 2
        assert "same store" in capsys.readouterr().err


class TestStoreBackendFlag:
    def test_clean_respects_the_backend_flag(self, tmp_path, capsys):
        store = open_store(tmp_path / "s", backend="sqlite")
        store.put("k", make_result())
        assert main(["clean", "--store", str(tmp_path / "s"),
                     "--store-backend", "sqlite"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert len(open_store(tmp_path / "s", backend="sqlite")) == 0


def _repo_env(store):
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo, "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env["REPRO_INSTRUCTIONS"] = "600"
    env["REPRO_STORE"] = str(store)
    env.pop("REPRO_API_KEYS", None)
    return env


class TestServeSubprocess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store-backend", "sqlite"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=_repo_env(tmp_path / "store"), text=True)
        try:
            line = proc.stdout.readline()
            assert "serving on http://" in line
            url = line.split()[2]
            import urllib.request
            body = json.dumps({"schemes": ["muontrap"], "suite": "mcf",
                               "instructions": 600}).encode()
            request = urllib.request.Request(
                f"{url}/v1/compare", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as response:
                job = json.loads(response.read())
            assert job["status"] in ("queued", "running", "done")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
        # The drained job's cells made it into the persistent store.
        store = open_store(tmp_path / "store", backend="sqlite")
        assert len(store) > 0
