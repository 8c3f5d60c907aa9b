"""Content-addressed store: round-trips, atomicity contract, hygiene."""

import http.client
import pickle
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign.server import MAX_BODY_BYTES, StoreServer
from repro.campaign.store import (
    DEFAULT_STORE,
    ResultStore,
    StoreUnavailable,
    canonical_dumps,
    default_store_path,
    delete_object,
    open_store,
    read_object,
)
from repro.cmp.results import ThreadResult

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def sample_value():
    return ThreadResult(name="crafty", instructions=1000.0, cycles=2500.0,
                        l1_accesses=100, l1_misses=10,
                        l2_accesses=10, l2_misses=3)


class TestRoundTrip:
    def test_miss_returns_none(self, store):
        assert store.get(KEY) is None
        assert KEY not in store

    def test_put_get(self, store):
        store.put(KEY, '{"spec": 1}', sample_value())
        assert KEY in store
        value = store.get(KEY)
        assert value == sample_value()
        assert value.ipc == pytest.approx(0.4)

    def test_spec_recorded(self, store):
        store.put(KEY, '{"spec": 1}', sample_value())
        assert store.spec(KEY) == '{"spec": 1}'

    def test_arbitrary_pickleables(self, store):
        payload = {"nested": (1, 2.5, "x"), "list": [sample_value()]}
        store.put(KEY, "spec", payload)
        assert store.get(KEY) == payload

    def test_overwrite_wins(self, store):
        store.put(KEY, "a", 1)
        store.put(KEY, "b", 2)
        assert store.get(KEY) == 2


class TestHygiene:
    def test_corrupt_object_reads_as_miss(self, store):
        path = store.put(KEY, "spec", sample_value())
        path.write_bytes(b"\x80\x05 garbage")
        assert store.get(KEY) is None

    def test_corrupt_protocol_byte_reads_as_miss(self, store):
        # pickle.load raises ValueError for an unsupported protocol byte;
        # that too must read as a miss, not crash the campaign.
        path = store.put(KEY, "spec", sample_value())
        path.write_bytes(b"\x80\xff" + path.read_bytes()[2:])
        assert store.get(KEY) is None
        assert store.spec(KEY) is None

    def test_truncated_object_reads_as_miss(self, store):
        path = store.put(KEY, "spec", sample_value())
        path.write_bytes(path.read_bytes()[:10])
        assert store.get(KEY) is None

    def test_key_mismatch_reads_as_miss(self, store):
        # An object renamed to the wrong address must not impersonate it.
        path = store.put(KEY, "spec", sample_value())
        wrong = store.path_for(OTHER)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(path.read_bytes())
        assert store.get(OTHER) is None

    def test_no_tmp_litter_after_put(self, store):
        store.put(KEY, "spec", sample_value())
        litter = list(store.root.rglob("*.tmp"))
        assert litter == []


class TestInventory:
    def test_len_and_iter(self, store):
        assert len(store) == 0
        store.put(KEY, "a", 1)
        store.put(OTHER, "b", 2)
        assert len(store) == 2
        assert set(store.iter_keys()) == {KEY, OTHER}

    def test_delete(self, store):
        store.put(KEY, "a", 1)
        assert store.delete(KEY)
        assert not store.delete(KEY)
        assert store.get(KEY) is None

    def test_clean(self, store):
        store.put(KEY, "a", 1)
        store.put(OTHER, "b", 2)
        assert store.clean() == 2
        assert len(store) == 0

    def test_clean_empty_store(self, tmp_path):
        assert ResultStore(tmp_path / "nowhere").clean() == 0


class TestDefaultPath:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "/tmp/elsewhere")
        assert default_store_path() == "/tmp/elsewhere"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store_path() == DEFAULT_STORE


def test_payload_is_plain_pickle(store):
    """Objects are introspectable without the package (debuggability)."""
    path = store.put(KEY, "the-spec", 42)
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    assert payload == {"key": KEY, "spec": "the-spec", "value": 42}


class TestCanonicalPickle:
    def test_bytes_independent_of_string_identity(self):
        """Shared vs distinct sub-objects must serialise identically.

        A plain pickle memoises by id(), so a value holding the *same*
        string object twice produces different bytes than an equal value
        holding two copies — exactly the serial-vs-unpickled-job history
        difference between pools.  canonical_dumps must erase it.
        """
        shared = "crafty"
        distinct = "".join(["cra", "fty"])  # equal, different identity
        assert shared == distinct and shared is not distinct
        a = {"names": [shared, shared], "n": 1}
        b = {"names": [shared, distinct], "n": 1}
        assert pickle.dumps(a) != pickle.dumps(b)  # the hazard is real
        assert canonical_dumps(a) == canonical_dumps(b)

    def test_put_uses_canonical_bytes(self, store, tmp_path):
        other = ResultStore(tmp_path / "other")
        shared = "crafty"
        store.put(KEY, "s", [shared, shared])
        other.put(KEY, "s", [shared, "".join(["cra", "fty"])])
        assert (store.path_for(KEY).read_bytes()
                == other.path_for(KEY).read_bytes())


class TestSpecs:
    """A store is the value ``(root, url)``: it pickles as it is into
    process workers."""

    def test_local_round_trip(self, store, tmp_path):
        rebuilt = pickle.loads(pickle.dumps(store))
        assert rebuilt == store
        store.put(KEY, "spec", 41)
        assert rebuilt.get(KEY) == 41
        assert rebuilt.root == store.root

    def test_caching_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "cache", url="http://127.0.0.1:1/")
        rebuilt = pickle.loads(pickle.dumps(store))
        assert rebuilt == store
        assert rebuilt.url == "http://127.0.0.1:1"
        assert rebuilt.root == tmp_path / "cache"
        assert rebuilt != ResultStore(tmp_path / "cache")

    def test_unknown_spec_rejected(self, tmp_path):
        # A directory and a URL are the whole description of a store.
        with pytest.raises(TypeError):
            ResultStore(tmp_path, backend=object())


@pytest.fixture
def served(tmp_path):
    """An HTTP endpoint over a fresh store directory (``served.root``)."""
    with StoreServer(tmp_path / "remote") as server:
        yield server


def read_through(served, tmp_path, name="cache"):
    """A store caching ``served`` in its own directory."""
    return ResultStore(tmp_path / name, url=served.url)


class TestHTTPBackend:
    def test_put_get_round_trip(self, served, tmp_path):
        store = read_through(served, tmp_path)
        store.put(KEY, "spec", sample_value())
        # The object is on the server, readable by an uncached peer.
        peer = read_through(served, tmp_path, "peer")
        assert peer.get(KEY) == sample_value()
        assert (read_object(served.root, KEY)
                == store.path_for(KEY).read_bytes()
                == peer.path_for(KEY).read_bytes())

    def test_read_through_caches_once(self, served, tmp_path):
        ResultStore(served.root).put(KEY, "spec", sample_value())
        store = read_through(served, tmp_path)
        assert store.get(KEY) == sample_value()
        fetches = served.stats.get("get", 0)
        assert fetches == 1
        assert store.get(KEY) == sample_value()  # second read: cache only
        assert KEY in store
        assert served.stats.get("get", 0) == fetches

    def test_corrupt_remote_object_reads_as_miss_and_is_not_cached(
            self, served, tmp_path):
        remote = ResultStore(served.root)
        remote.put(KEY, "spec", sample_value())
        remote.path_for(KEY).write_bytes(b"\x80\x05 garbage")
        store = read_through(served, tmp_path)
        assert store.get(KEY) is None
        assert not store.path_for(KEY).exists()

    def test_put_dedup_leaves_existing_object_untouched(self, served,
                                                        tmp_path):
        store = read_through(served, tmp_path)
        store.put(KEY, "spec", sample_value())
        original = read_object(served.root, KEY)
        store.put(KEY, "spec", sample_value())
        assert served.stats.get("put_dedup", 0) == 1
        assert read_object(served.root, KEY) == original

    def test_keys_listing_comes_from_remote(self, served, tmp_path):
        ResultStore(served.root).put(KEY, "a", 1)
        store = read_through(served, tmp_path)
        assert set(store.iter_keys()) == {KEY}
        store.put(OTHER, "b", 2)
        delete_object(served.root, OTHER)  # only the cache holds it now
        assert list(store.iter_keys()) == sorted([KEY, OTHER])

    def test_unreachable_remote_write_raises(self, tmp_path):
        # Nothing listens on port 1.
        store = ResultStore(tmp_path / "cache", url="http://127.0.0.1:1")
        with pytest.raises(StoreUnavailable, match="127.0.0.1:1"):
            store.put(KEY, "spec", b"data")
        assert not store.path_for(KEY).exists()  # remote first, then cache
        assert store.get(KEY) is None  # reads degrade to a miss

    def test_unreachable_remote_listing_raises(self, tmp_path):
        """A listing never passes the cache off as the store: ``clean``
        must not report removing what it never reached."""
        local = ResultStore(tmp_path / "cache")
        local.put(KEY, "spec", 1)
        store = ResultStore(local.root, url="http://127.0.0.1:1")
        with pytest.raises(StoreUnavailable, match="127.0.0.1:1"):
            store.clean()
        with pytest.raises(StoreUnavailable):
            len(store)
        assert local.get(KEY) == 1

    def test_path_traversal_keys_rejected(self, served, tmp_path):
        store = read_through(served, tmp_path)
        assert store.get("../../etc/passwd") is None
        with pytest.raises(StoreUnavailable):
            store.put("not-a-hex-key", "spec", b"data")
        assert list(served.root.rglob("*")) == []


class TestServeRequests:
    """``campaign serve`` under concurrent and malformed requests."""

    def test_concurrent_gets_are_all_counted(self, served):
        """Handlers run one thread per connection; every GET is counted,
        none lost to a racing read-modify-write of ``stats``.  The counts
        land in a dict whose reads give up the interpreter (and the
        switch interval is shortened), so an unguarded ``+= 1`` would
        lose some."""

        class Contended(dict):
            def get(self, key, default=None):
                value = super().get(key, default)
                time.sleep(0.0002)
                return value

        served._httpd.RequestHandlerClass.stats = served.stats = Contended()
        ResultStore(served.root).put(KEY, "spec", sample_value())
        url = f"{served.url}/objects/{KEY}"
        count = 200

        def get(_):
            with urllib.request.urlopen(url, timeout=30) as resp:
                return resp.status

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert set(pool.map(get, range(count))) == {200}
        finally:
            sys.setswitchinterval(interval)
        assert served.stats["get"] == count
        assert "get_miss" not in served.stats

    @staticmethod
    def put_with_length(server, length: str):
        """A PUT announcing ``length`` and sending no body: the reply the
        server gives before reading any."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.putrequest("PUT", f"/objects/{KEY}")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["-1", "abc", "1e3", "+5",
                                        "\u00b2"])
    def test_malformed_content_length_is_a_400(self, served, length):
        assert self.put_with_length(served, length) \
            == (400, b"bad content-length")
        assert read_object(served.root, KEY) is None
        assert "put" not in served.stats

    def test_body_over_the_cap_is_a_413_and_never_read(self, served):
        assert self.put_with_length(served, str(MAX_BODY_BYTES + 1)) \
            == (413, b"body too large")
        assert read_object(served.root, KEY) is None
        # A body at the cap is still accepted.
        request = urllib.request.Request(f"{served.url}/objects/{KEY}",
                                         data=b"x" * MAX_BODY_BYTES,
                                         method="PUT")
        with urllib.request.urlopen(request, timeout=30) as resp:
            assert resp.status == 201
        assert len(read_object(served.root, KEY)) == MAX_BODY_BYTES


class TestOpenStore:
    def test_plain_local(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_URL", raising=False)
        store = open_store(tmp_path / "local")
        assert store == ResultStore(tmp_path / "local")
        assert store.url is None

    def test_url_env_selects_caching_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_URL", "http://example.test:9000")
        store = open_store(tmp_path / "cache")
        assert store.url == "http://example.test:9000"
        assert store.root == tmp_path / "cache"
        assert store.describe() == \
            f"http://example.test:9000 (cache: {tmp_path / 'cache'})"

    def test_explicit_url_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_URL", "http://env.test:1")
        store = open_store(tmp_path / "c", "http://flag.test:2")
        assert store.url == "http://flag.test:2"
