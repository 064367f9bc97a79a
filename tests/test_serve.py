"""The serving layer: auth, rate limits, determinism, single-flight,
keyed run-store replay, the bounded memo and signal shutdown.

Everything runs through the in-process ASGI test client — no sockets —
except one socket test against the bundled HTTP server and one against
the ``repro serve`` CLI in a child process.  Dataset work
uses a tiny scale (0.004, no posts) so each computed request is cheap.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.obs.tracer import NullTracer, Tracer, set_tracer
from repro.robust.quarantine import quarantine_dir
from repro.runs import ExperimentResult, RunContext, RunStore
from repro.serve import (
    BackgroundServer,
    ServeSettings,
    TestClient,
    create_app,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve import services as services_mod

KEY = "test-key-1"
OTHER_KEY = "test-key-2"
AUTH = {"x-api-key": KEY}
MARKET = "scale=0.004&seed=9&posts=false"


@pytest.fixture()
def app(tmp_path):
    settings = ServeSettings(
        api_keys=(KEY, OTHER_KEY),
        rate_capacity=1000,
        rate_refill_per_second=1000.0,
        cache_dir=str(tmp_path / "cache"),
        runs_dir=str(tmp_path / "runs"),
        use_fork=False,  # keep tests single-process and fast
        executor_workers=4,
    )
    return create_app(settings)


@pytest.fixture()
def client(app):
    return TestClient(app)


class TestAuthAndBasics:
    def test_healthz_is_open(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json()["status"] == "ok"

    def test_missing_key_is_401(self, client):
        assert client.get("/v1/meta").status == 401

    def test_bad_key_is_401(self, client):
        response = client.get("/v1/meta", headers={"x-api-key": "nope"})
        assert response.status == 401

    def test_good_key_lists_capabilities(self, client):
        response = client.get("/v1/meta", headers=AUTH)
        assert response.status == 200
        payload = response.json()
        assert "table1" in payload["experiments"]
        assert "growth" in payload["slices"]
        assert payload["eras"] == ["SET-UP", "STABLE", "COVID-19"]

    def test_unknown_route_is_404(self, client):
        assert client.get("/v1/nothing", headers=AUTH).status == 404

    def test_request_ids_are_present_and_unique(self, client):
        first = client.get("/healthz")
        second = client.get("/healthz")
        assert first.headers["x-request-id"] != second.headers["x-request-id"]

    def test_auth_errors_carry_request_id(self, client):
        assert "x-request-id" in client.get("/v1/meta").headers


class TestValidation:
    def test_scale_out_of_bounds_is_400(self, client):
        response = client.get("/v1/dataset/summary?scale=9", headers=AUTH)
        assert response.status == 400
        assert "max-scale" in response.json()["error"]

    def test_bad_number_is_400(self, client):
        response = client.get("/v1/dataset/summary?scale=abc", headers=AUTH)
        assert response.status == 400

    def test_unknown_slice_is_404(self, client):
        response = client.get(f"/v1/slices/nope?{MARKET}", headers=AUTH)
        assert response.status == 404

    def test_unknown_experiment_is_404(self, client):
        response = client.get(f"/v1/experiments/nope?{MARKET}", headers=AUTH)
        assert response.status == 404

    def test_bad_era_is_400(self, client):
        response = client.get(
            f"/v1/slices/growth?{MARKET}&era=jurassic", headers=AUTH
        )
        assert response.status == 400

    def test_bad_window_is_400(self, client):
        response = client.get(
            f"/v1/slices/growth?{MARKET}&start=20x9", headers=AUTH
        )
        assert response.status == 400

    def test_bad_report_body_is_400(self, client):
        response = client.post(
            f"/v1/reports?{MARKET}", headers=AUTH,
            json={"experiments": ["nope"]},
        )
        assert response.status == 400


class TestDeterminism:
    def test_identical_requests_are_byte_identical(self, client):
        path = f"/v1/dataset/summary?{MARKET}"
        first = client.get(path, headers=AUTH)
        second = client.get(path, headers=AUTH)
        assert first.status == second.status == 200
        assert first.body == second.body
        assert first.headers["x-serve-source"] == "computed"
        assert second.headers["x-serve-source"] == "memo"
        assert first.headers["x-run-key"] == second.headers["x-run-key"]

    def test_query_order_does_not_change_the_key(self, client):
        first = client.get(
            "/v1/dataset/summary?scale=0.004&seed=9&posts=false",
            headers=AUTH,
        )
        second = client.get(
            "/v1/dataset/summary?posts=false&seed=9&scale=0.004",
            headers=AUTH,
        )
        assert first.body == second.body
        assert second.headers["x-serve-source"] == "memo"

    def test_era_spellings_share_one_key(self, client):
        first = client.get(
            f"/v1/slices/funnel?{MARKET}&era=covid-19", headers=AUTH
        )
        second = client.get(
            f"/v1/slices/funnel?{MARKET}&era=E3", headers=AUTH
        )
        assert first.status == 200
        assert first.body == second.body
        assert second.headers["x-serve-source"] == "memo"

    def test_different_seed_is_a_different_key(self, client):
        first = client.get(
            "/v1/dataset/summary?scale=0.004&seed=9&posts=false",
            headers=AUTH,
        )
        second = client.get(
            "/v1/dataset/summary?scale=0.004&seed=10&posts=false",
            headers=AUTH,
        )
        assert first.headers["x-run-key"] != second.headers["x-run-key"]
        assert second.headers["x-serve-source"] == "computed"

    def test_store_replay_across_service_restart(self, client, app, tmp_path):
        path = f"/v1/slices/growth?{MARKET}"
        first = client.get(path, headers=AUTH)
        assert first.headers["x-serve-source"] == "computed"

        fresh_app = create_app(app.state["settings"])
        fresh_client = TestClient(fresh_app)
        replay = fresh_client.get(path, headers=AUTH)
        assert replay.status == 200
        assert replay.headers["x-serve-source"] == "store"
        assert replay.body == first.body

    def test_payload_carries_contract_fields(self, client):
        response = client.get(f"/v1/dataset/summary?{MARKET}", headers=AUTH)
        payload = response.json()
        assert payload["command"] == "serve-summary"
        assert payload["seed"] == 9
        assert payload["run_key"] == response.headers["x-run-key"]
        (result,) = payload["results"]
        assert result["status"] == "ok"
        assert result["text_sha256"]
        assert "seconds" not in result  # timings never enter the bytes


class TestSingleFlight:
    def test_concurrent_identical_requests_generate_once(
        self, client, monkeypatch
    ):
        """Two simultaneous requests for one (config, seed, scale) must
        trigger exactly one generation; the loser of the race serves
        the winner's bytes."""
        calls = []
        call_lock = threading.Lock()
        real_compute = services_mod._compute_results

        def counting_compute(spec):
            with call_lock:
                calls.append(spec["context"]["command"])
            return real_compute(spec)

        monkeypatch.setattr(
            services_mod, "_compute_results", counting_compute
        )

        path = f"/v1/dataset/summary?{MARKET}"
        barrier = threading.Barrier(2)
        responses = {}

        def hit(slot):
            barrier.wait()
            responses[slot] = client.request("GET", path, headers=AUTH)

        threads = [
            threading.Thread(target=hit, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(calls) == 1, f"expected one generation, saw {len(calls)}"
        assert responses[0].status == responses[1].status == 200
        assert responses[0].body == responses[1].body
        sources = sorted(
            r.headers["x-serve-source"] for r in responses.values()
        )
        assert sources[0] == "computed"
        assert sources[1] in ("memo", "store")

    def test_store_hit_skips_compute(self, client, app, monkeypatch):
        path = f"/v1/dataset/summary?{MARKET}"
        assert client.get(path, headers=AUTH).status == 200

        def exploding_compute(spec):
            raise AssertionError("replay must not recompute")

        monkeypatch.setattr(
            services_mod, "_compute_results", exploding_compute
        )
        fresh_client = TestClient(create_app(app.state["settings"]))
        replay = fresh_client.get(path, headers=AUTH)
        assert replay.status == 200
        assert replay.headers["x-serve-source"] == "store"


def _exploding_compute(spec):
    raise AssertionError("replay must not recompute")


def _second_run_of(store, run_id):
    """Record a copy of ``run_id`` into its key's next free slot."""
    record = store.load(run_id)
    handle = store.begin(record.context)
    for result in record.results.values():
        handle.record(result)
    return handle.finish()


class TestKeyedReplay:
    def test_replay_never_lists_the_store(self, client, app, monkeypatch):
        """300 unrelated runs beside the key's two: the store tier probes
        the key's slots and never lists the store."""
        path = f"/v1/dataset/summary?{MARKET}"
        first = client.get(path, headers=AUTH)
        assert first.headers["x-serve-source"] == "computed"
        service = app.state["service"]
        store = service.store
        (run_id,) = store.run_ids()
        _second_run_of(store, run_id)
        for seed in range(300):
            store.begin(service.build_context(
                "serve-summary", ("summary",), 0.004, 10_000 + seed,
                posts=False,
            )).finish()

        def no_listing(self):
            raise AssertionError("a replay must not list the store")

        monkeypatch.setattr(RunStore, "run_ids", no_listing)
        monkeypatch.setattr(
            services_mod, "_compute_results", _exploding_compute
        )
        replay = TestClient(create_app(app.state["settings"])).get(
            path, headers=AUTH
        )
        assert replay.status == 200
        assert replay.headers["x-serve-source"] == "store"
        assert replay.body == first.body

    def test_gap_recomputes_into_the_gap(self, client, app):
        """A quarantined first slot ends the probe before ``-2``: the key
        computes once more, lands in the gap and replays from there."""
        path = f"/v1/slices/growth?{MARKET}"
        first = client.get(path, headers=AUTH)
        assert first.headers["x-serve-source"] == "computed"
        store = app.state["service"].store
        (base,) = store.run_ids()
        assert _second_run_of(store, base).run_id == f"{base}-2"
        assert quarantine_dir(store.path_for(base), counter="runs.corrupt")

        again = TestClient(create_app(app.state["settings"])).get(
            path, headers=AUTH
        )
        assert again.headers["x-serve-source"] == "computed"
        assert again.body == first.body
        assert store.run_ids() == [base, f"{base}-2"]
        assert store.load(base).ok

        replay = TestClient(create_app(app.state["settings"])).get(
            path, headers=AUTH
        )
        assert replay.headers["x-serve-source"] == "store"
        assert replay.body == first.body


def _spans_named(tracer, name):
    stack, found = list(tracer.roots), 0
    while stack:
        node = stack.pop()
        found += node.name == name
        stack.extend(node.children)
    return found


class TestOneEntryPerMarket:
    def test_summary_then_slice_generate_once(self, tmp_path):
        """A market's summary and its slices read one cache entry, so a
        fresh seed is generated once however it is first asked for."""
        cache_dir = tmp_path / "cache"
        service = services_mod.MarketService(ServeSettings(
            api_keys=(KEY,), cache_dir=str(cache_dir),
            use_run_store=False, use_fork=False,
        ))
        tracer = set_tracer(Tracer())
        try:
            summary = service.build_context(
                "serve-summary", ("summary",), 0.004, 4242, posts=False
            )
            assert service.execute(summary).source == "computed"
            growth = service.build_context(
                "serve-stream", ("stream-growth",), 0.004, 4242, posts=False,
                store_kind="partitioned",
            )
            reply = service.execute(growth)
        finally:
            set_tracer(NullTracer())
        assert reply.ok and reply.source == "computed"
        assert _spans_named(tracer, "synth.generate") == 1
        assert len([n for n in os.listdir(cache_dir)
                    if os.path.isdir(cache_dir / n)]) == 1


class TestBoundedMemo:
    @pytest.fixture()
    def service(self, monkeypatch):
        """A store-less, in-process service whose compute is a stub that
        records each seed it computes (``fail`` seeds degrade)."""
        service = services_mod.MarketService(ServeSettings(
            api_keys=(KEY,), use_run_store=False, use_fork=False,
        ))
        service.computed = []
        service.fail = set()

        def stub(spec):
            seed = RunContext.from_payload(spec["context"]).seed
            service.computed.append(seed)
            time.sleep(0.001)
            error = None
            if seed in service.fail:
                error = {"type": "Boom", "message": "", "traceback": "",
                         "attempts": 1, "failures": 1}
            return [ExperimentResult("summary", "dataset summary",
                                     [f"seed {seed}"], 0.0, error=error)]

        monkeypatch.setattr(services_mod, "_compute_results", stub)
        return service

    @staticmethod
    def _context(service, seed):
        return service.build_context(
            "serve-summary", ("summary",), 0.004, seed, posts=False
        )

    def test_lru_cap_holds_and_hot_key_stays(self, service):
        tracer = set_tracer(Tracer())
        try:
            hot = self._context(service, 1)
            assert service.execute(hot).source == "computed"
            largest = 0
            for seed in range(2, 2002):
                service.execute(self._context(service, seed))
                if seed % 10 == 0:
                    assert service.execute(hot).source == "memo"
                largest = max(largest, len(service._memo))
        finally:
            set_tracer(NullTracer())
        capacity = services_mod.MEMO_CAPACITY
        assert largest == capacity
        assert hot.run_key() in service._memo
        assert service.computed.count(1) == 1
        assert service._inflight == {}
        assert tracer.counters["serve.memo_evicted"] == 2001 - capacity

    def test_failed_key_drops_its_lock_unmemoized(self, service):
        service.fail.add(5)
        context = self._context(service, 5)
        for _ in range(2):
            reply = service.execute(context)
            assert reply.source == "computed" and not reply.ok
        assert service.computed == [5, 5]
        assert service._inflight == {}
        assert context.run_key() not in service._memo

    def test_single_flight_under_contention(self, service):
        """Eight threads on four keys with a short switch interval: each
        key computes once and every lock is dropped at the end."""
        contexts = [self._context(service, seed) for seed in range(4)]
        errors = []

        def worker(offset):
            try:
                for i in range(100):
                    service.execute(contexts[(i + offset) % 4])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(service.computed) == [0, 1, 2, 3]
        assert service._inflight == {}


class TestRunStoreIntegration:
    def test_computed_runs_are_recorded_and_queryable(self, client):
        assert client.get(
            f"/v1/experiments/table1?{MARKET}", headers=AUTH
        ).status == 200
        listing = client.get("/v1/runs?command=serve-report", headers=AUTH)
        assert listing.status == 200
        runs = listing.json()["runs"]
        assert len(runs) == 1
        assert runs[0]["experiments"] == ["table1"]
        detail = client.get(f"/v1/runs/{runs[0]['run_id']}", headers=AUTH)
        assert detail.status == 200
        payload = detail.json()
        assert payload["status"] == "complete"
        assert payload["results"][0]["experiment_id"] == "table1"

    def test_unknown_run_is_404(self, client):
        assert client.get("/v1/runs/nope", headers=AUTH).status == 404

    def test_manifest_records_request_id(self, client, app):
        from repro.obs import read_manifest

        response = client.get(f"/v1/dataset/summary?{MARKET}", headers=AUTH)
        assert response.headers["x-serve-source"] == "computed"
        service = app.state["service"]
        (run_id,) = [r["run_id"] for r in service.list_runs()]
        manifest = read_manifest(service.store.path_for(run_id))
        assert manifest.request_id == response.headers["x-request-id"]
        assert manifest.run_id == run_id


class TestRateLimit:
    def _app(self, tmp_path, capacity, refill):
        return create_app(
            ServeSettings(
                api_keys=(KEY, OTHER_KEY),
                rate_capacity=capacity,
                rate_refill_per_second=refill,
                cache_dir=str(tmp_path / "cache"),
                runs_dir=str(tmp_path / "runs"),
                use_fork=False,
            )
        )

    def test_burst_gets_429_with_retry_after(self, tmp_path):
        client = TestClient(self._app(tmp_path, capacity=3, refill=0.001))
        codes = [
            client.get("/v1/meta", headers=AUTH).status for _ in range(5)
        ]
        assert codes[:3] == [200, 200, 200]
        assert codes[3:] == [429, 429]
        limited = client.get("/v1/meta", headers=AUTH)
        assert limited.status == 429
        assert int(limited.headers["retry-after"]) >= 1

    def test_buckets_are_per_key(self, tmp_path):
        client = TestClient(self._app(tmp_path, capacity=2, refill=0.001))
        for _ in range(2):
            assert client.get("/v1/meta", headers=AUTH).status == 200
        assert client.get("/v1/meta", headers=AUTH).status == 429
        other = client.get("/v1/meta", headers={"x-api-key": OTHER_KEY})
        assert other.status == 200

    def test_healthz_is_exempt(self, tmp_path):
        client = TestClient(self._app(tmp_path, capacity=1, refill=0.001))
        assert client.get("/v1/meta", headers=AUTH).status == 200
        assert client.get("/v1/meta", headers=AUTH).status == 429
        assert client.get("/healthz").status == 200

    def test_bucket_refills(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(2, 1.0, now=lambda: clock["now"])
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        allowed, retry_after = bucket.try_take()
        assert not allowed and retry_after == pytest.approx(1.0)
        clock["now"] = 1.5
        assert bucket.try_take() == (True, 0.0)

    def test_limiter_is_keyed(self):
        clock = {"now": 0.0}
        limiter = RateLimiter(1, 0.0, now=lambda: clock["now"])
        assert limiter.check("a") == (True, 0.0)
        assert limiter.check("a")[0] is False
        assert limiter.check("b") == (True, 0.0)


class TestHttpServer:
    def test_end_to_end_over_sockets(self, tmp_path):
        import http.client

        app = create_app(
            ServeSettings(
                api_keys=(KEY,),
                rate_capacity=100,
                rate_refill_per_second=100.0,
                cache_dir=str(tmp_path / "cache"),
                runs_dir=str(tmp_path / "runs"),
                use_fork=False,
            )
        )
        with BackgroundServer(app) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=120
            )
            try:
                connection.request("GET", "/healthz")
                health = connection.getresponse()
                assert health.status == 200
                assert json.loads(health.read())["status"] == "ok"

                path = f"/v1/dataset/summary?{MARKET}"
                connection.request("GET", path, headers={"X-API-Key": KEY})
                first = connection.getresponse()
                first_body = first.read()  # keep-alive: same connection
                assert first.status == 200

                connection.request("GET", path, headers={"X-API-Key": KEY})
                second = connection.getresponse()
                assert second.getheader("x-serve-source") == "memo"
                assert second.read() == first_body
            finally:
                connection.close()

    def test_cli_stops_on_sigint_inherited_as_ignored(self, tmp_path):
        """``repro serve`` started as a background job of a
        non-interactive shell (SIGINT ignored) still exits 0 on SIGINT."""
        import http.client

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-auth",
             "--port", str(port), "--cache-dir", str(tmp_path / "cache"),
             "--runs-dir", str(tmp_path / "runs")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            deadline = time.monotonic() + 60.0
            healthy = False
            while not healthy and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stderr.read().decode()
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=5
                )
                try:
                    connection.request("GET", "/healthz")
                    healthy = connection.getresponse().status == 200
                except OSError:
                    time.sleep(0.1)
                finally:
                    connection.close()
            assert healthy, "server never answered /healthz"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=5.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stderr.close()
