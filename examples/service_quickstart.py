"""The simulation service, end to end, in one process.

Starts a :class:`repro.service.server.ReproServer` on a free port with a
SQLite-backed result store and hashed API-key auth, then drives it with
the stdlib client exactly the way a remote consumer would:

1. ``GET /v1/health`` and the listing endpoints;
2. a synchronous ``POST /v1/simulate``;
3. an async sweep — submit, watch the job's progress, fetch the result —
   and a byte-for-byte check that the HTTP response equals serialising
   the same :func:`repro.api.sweep` run inline;
4. a duplicate submission, to show content-hash job deduplication (and
   that the shared store makes the replay free).

Everything is stdlib: the server is ``http.server``, the client is
``urllib``.  In production you would run the server as its own process —
``REPRO_API_KEYS=my-key python -m repro serve --store-backend sqlite`` —
and point :class:`~repro.service.client.ServiceClient` at its URL.

Run with:  python examples/service_quickstart.py [instructions]
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro import api
from repro.harness.store import open_store
from repro.service import (
    ApiKeyAuth,
    ReproServer,
    ServiceClient,
    ServiceConfig,
)
from repro.service.serialize import canonical_json, sweep_payload

API_KEY = "quickstart-key"


def main() -> int:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 4000

    store_root = tempfile.mkdtemp(prefix="repro-service-")
    store = open_store(store_root, backend="sqlite")
    server = ReproServer(ServiceConfig(
        port=0, store=store, auth=ApiKeyAuth.from_keys(API_KEY)))
    server.start()
    print(f"server:   {server.url}  (store {store.describe()})")

    client = ServiceClient(server.url, api_key=API_KEY)

    health = client.health()
    print(f"health:   repro {health['version']}, "
          f"{health['schemes']} schemes, {health['suites']} suites, "
          f"stores={'/'.join(health['store_backends'])}")
    print(f"machines: {', '.join(m['name'] for m in client.machines())}")

    # -- one cell, synchronously ---------------------------------------------
    outcome = client.simulate("mcf", scheme="muontrap",
                              instructions=instructions)
    result = outcome["result"]
    print(f"simulate: mcf/muontrap -> {result['cycles']} cycles "
          f"({result['instructions']} instructions)")

    # -- an async sweep: submit, poll, fetch ---------------------------------
    job = client.submit_sweep("core.width", [2, 4, 8], suite="mcf",
                              instructions=instructions)
    print(f"job:      {job['id']} submitted")
    final = client.wait(job["id"], timeout=600)
    progress = final["progress"]
    print(f"job:      done ({progress['done']}/{progress['total']} cells, "
          f"{final['failed_cells']} quarantined)")

    remote_bytes = client.job_result_bytes(job["id"])
    sweep = json.loads(remote_bytes.decode("utf-8"))
    geomeans = sweep["comparison"]["geomeans"]
    for width in sweep["values"]:
        print(f"          width {width}: geomean "
              f"{geomeans[str(width)]:.3f}x baseline")

    # -- the byte-identity contract ------------------------------------------
    inline = api.sweep("core.width", [2, 4, 8], suite="mcf",
                       instructions=instructions, store=store)
    identical = remote_bytes == canonical_json(sweep_payload(inline))
    print(f"contract: HTTP bytes == inline serialisation: {identical}")
    stats = inline.comparison.result.stats
    print(f"store:    inline replay executed {stats.executed} cells "
          f"({stats.store_hits} from the shared store)")

    # -- deduplication -------------------------------------------------------
    again = client.submit_sweep("core.width", [2, 4, 8], suite="mcf",
                                instructions=instructions)
    print(f"dedup:    resubmitting returned the same job "
          f"({again['id'] == job['id']}), already {again['status']}")

    server.shutdown(drain=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
