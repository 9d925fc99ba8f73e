"""The persistent result store (``repro.serve.store``).

The load-bearing claims:

* an estimate round-trips through the sqlite store bit-identically
  (floats serialise via ``repr``, dataclass equality is exact);
* rows are addressed by ``(evaluator fingerprint, config)``: different
  energy models or backends never share rows, identical evaluators
  always do -- across store instances and processes;
* an empty database migrates to ``repro.store/1`` on first open, a
  future-schema database is refused with a clear error, and garbage
  files are refused rather than clobbered;
* a :class:`ParallelSweep` given the store is a transparent L2 tier:
  stored rows bypass the engine entirely, misses are evaluated and
  written back, and an evaluator the store cannot key is refused;
* ``get_many`` reads any batch in a few queries, each under sqlite's
  bound-variable limit.
"""

import dataclasses
import itertools
import json
import pickle
import sqlite3

import pytest

from repro.core.config import CacheConfig
from repro.energy.model import EnergyModel
from repro.energy.params import SRAM_CATALOG
from repro.engine import (
    Evaluator,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    order_configs,
)
from repro.kernels import get_kernel, make_compress
from repro.obs.metrics import get_metrics
from repro.serve import (
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    StoreSchemaError,
    config_key,
    evaluator_fingerprint,
    open_store,
)


def _evaluator(**kwargs):
    return Evaluator(KernelWorkload(make_compress(n=7)), **kwargs)


def _configs():
    return order_configs(
        CacheConfig(size, line) for size in (32, 64) for line in (4, 8)
    )


def _counter(name):
    return get_metrics().counter(name).value


def _stored_run(store, evaluator, configs, jobs=1):
    """One sweep over ``store``: stored rows read, the rest evaluated."""
    return ParallelSweep(
        jobs=jobs, resilience=ResilienceOptions(store=store)
    ).run(evaluator, configs)


class _Exploding(Evaluator):
    """Fingerprints like :func:`_evaluator`, but never evaluates."""

    def evaluate_batch(self, configs):
        raise AssertionError("a stored row must not reach the engine")


class TestRoundTrip:
    def test_estimate_round_trips_exactly(self, tmp_path):
        evaluator = _evaluator()
        config = CacheConfig(64, 8)
        estimate = evaluator.evaluate(config)
        store = ResultStore(str(tmp_path / "r.db"))
        store.put("eval-a", config, estimate)
        loaded = store.get("eval-a", config)
        # Frozen-dataclass equality: every field, floats included, exact.
        assert loaded == estimate
        assert loaded.energy_nj == estimate.energy_nj
        assert repr(loaded) == repr(estimate)

    def test_full_result_round_trips_exactly(self, tmp_path):
        evaluator = _evaluator()
        configs = _configs()
        run = evaluator.sweep(configs=configs)
        store = ResultStore(str(tmp_path / "r.db"))
        store.put_many("eval-a", zip(configs, run.estimates))
        result = store.result_for("eval-a", configs)
        assert list(result.estimates) == list(run.estimates)

    def test_config_identity_keys_rows(self, tmp_path):
        evaluator = _evaluator()
        a, b = CacheConfig(64, 8, 1, 1), CacheConfig(64, 8, 2, 1)
        assert config_key(a) != config_key(b)
        store = ResultStore(str(tmp_path / "r.db"))
        store.put("eval-a", a, evaluator.evaluate(a))
        assert store.get("eval-a", b) is None
        assert store.get("eval-a", CacheConfig(64, 8, 1, 1)) is not None

    def test_partial_sweep_yields_no_result(self, tmp_path):
        evaluator = _evaluator()
        configs = _configs()
        store = ResultStore(str(tmp_path / "r.db"))
        store.put("eval-a", configs[0], evaluator.evaluate(configs[0]))
        assert store.result_for("eval-a", configs) is None

    def test_shared_across_instances(self, tmp_path):
        path = str(tmp_path / "r.db")
        evaluator = _evaluator()
        config = CacheConfig(64, 8)
        with ResultStore(path) as writer:
            writer.put("eval-a", config, evaluator.evaluate(config))
        with ResultStore(path) as reader:
            assert reader.get("eval-a", config) == evaluator.evaluate(config)

    def test_first_writer_wins(self, tmp_path):
        evaluator = _evaluator()
        config = CacheConfig(64, 8)
        first = evaluator.evaluate(config)
        second = evaluator.evaluate(CacheConfig(32, 4))
        store = ResultStore(str(tmp_path / "r.db"))
        store.put("eval-a", config, first)
        store.put("eval-a", config, second)  # ignored, not replaced
        assert store.get("eval-a", config) == first

    def test_hit_miss_put_counters(self, tmp_path):
        evaluator = _evaluator()
        config = CacheConfig(64, 8)
        store = ResultStore(str(tmp_path / "r.db"))
        misses, hits, puts = (
            _counter("store.misses"), _counter("store.hits"),
            _counter("store.puts"),
        )
        assert store.get("eval-a", config) is None
        store.put("eval-a", config, evaluator.evaluate(config))
        assert store.get("eval-a", config) is not None
        assert _counter("store.misses") == misses + 1
        assert _counter("store.hits") == hits + 1
        assert _counter("store.puts") == puts + 1


class TestSchema:
    def test_empty_db_migrates(self, tmp_path):
        path = str(tmp_path / "fresh.db")
        store = ResultStore(path)
        assert len(store) == 0
        store.close()
        conn = sqlite3.connect(path)
        tag = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()[0]
        conn.close()
        assert tag == STORE_SCHEMA

    def test_newer_schema_refused(self, tmp_path):
        path = str(tmp_path / "future.db")
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = 'repro.store/2' WHERE key = 'schema'"
            )
        conn.close()
        with pytest.raises(StoreSchemaError, match="newer than"):
            ResultStore(path)

    def test_unrecognised_schema_tag_refused(self, tmp_path):
        path = str(tmp_path / "odd.db")
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = 'something-else' WHERE key = 'schema'"
            )
        conn.close()
        with pytest.raises(StoreError, match="not a repro.store/1 store"):
            ResultStore(path)

    def test_garbage_file_refused(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_text("this is not sqlite at all, not even close........\n")
        with pytest.raises(StoreError, match="not a repro.store/1 store"):
            ResultStore(str(path))

    def test_open_store_creates_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "r.db"
        store = open_store(str(path))
        assert path.exists()
        store.close()


class TestEvaluatorFingerprint:
    def test_same_setup_same_fingerprint(self):
        assert evaluator_fingerprint(_evaluator()) == evaluator_fingerprint(
            _evaluator()
        )

    def test_backend_changes_fingerprint(self):
        assert evaluator_fingerprint(
            _evaluator(backend="fastsim")
        ) != evaluator_fingerprint(_evaluator(backend="reference"))

    def test_energy_model_changes_fingerprint(self):
        sloww = EnergyModel(sram=SRAM_CATALOG["low-power-2Mbit"])
        assert evaluator_fingerprint(
            _evaluator(energy_model=sloww)
        ) != evaluator_fingerprint(_evaluator())

    def test_workload_changes_fingerprint(self):
        other = Evaluator(KernelWorkload(get_kernel("conv2d")))
        assert evaluator_fingerprint(other) != evaluator_fingerprint(
            _evaluator()
        )


class TestStoreBackedEvaluator:
    """Store-backed evaluation: a ``ParallelSweep`` given the store."""

    def test_miss_delegates_and_writes_back(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        config = CacheConfig(64, 8)
        [estimate] = _stored_run(store, evaluator, [config])
        assert estimate == evaluator.evaluate(config)
        assert store.get(evaluator_fingerprint(evaluator), config) == estimate

    def test_hit_bypasses_engine(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.db"))
        configs = _configs()
        expected = _stored_run(store, _evaluator(), configs)
        exploding = _Exploding(KernelWorkload(make_compress(n=7)))
        assert evaluator_fingerprint(exploding) == evaluator_fingerprint(
            _evaluator()
        )
        assert _stored_run(store, exploding, configs) == expected

    def test_store_never_crosses_a_process_boundary(self, tmp_path):
        # Workers get the evaluator only; the store, and with it the
        # sqlite connection, stays in the process that opened it.
        store = ResultStore(str(tmp_path / "r.db"))
        with pytest.raises(TypeError):
            pickle.dumps(store)
        evaluator = _evaluator()
        configs = _configs()
        chunks = _counter("parallel.chunks_completed")
        assert _stored_run(store, evaluator, configs, jobs=2) == list(
            evaluator.sweep(configs=configs).estimates
        )
        assert _counter("parallel.chunks_completed") > chunks

    def test_distinct_evaluators_do_not_share_rows(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.db"))
        config = CacheConfig(64, 8)
        _stored_run(store, _evaluator(), [config])
        other = Evaluator(KernelWorkload(get_kernel("conv2d")))
        assert store.get(evaluator_fingerprint(other), config) is None

    def test_opaque_evaluator_refused_before_any_evaluation(self, tmp_path):
        class Opaque:
            """No ``workload``, no ``kernels``: keyed by its class alone."""

            def __init__(self, kernel):
                self.inner = Evaluator(KernelWorkload(kernel))
                self.calls = 0

            def evaluate_batch(self, configs):
                self.calls += 1
                return self.inner.evaluate_batch(configs)

        small = Opaque(make_compress(n=7))
        full = Opaque(get_kernel("compress"))
        # Two evaluators that disagree share one fingerprint...
        assert evaluator_fingerprint(small) == evaluator_fingerprint(full)
        store = ResultStore(str(tmp_path / "r.db"))
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="Opaque has neither"):
                _stored_run(store, small, _configs(), jobs=jobs)
        # ...so neither may read or write the store.
        assert small.calls == 0 and len(store) == 0
        # Without a store an opaque evaluator still sweeps.
        assert ParallelSweep(jobs=1).run(full, _configs()) == (
            full.inner.evaluate_batch(_configs())
        )


def _many_configs(count):
    """``count`` distinct valid configurations (sizes, lines, tilings)."""
    configs = []
    for size, line, tiling in itertools.product(
        (2 ** k for k in range(4, 24)),
        (2 ** k for k in range(0, 4)),
        (2 ** k for k in range(0, 25)),
    ):
        configs.append(CacheConfig(size, line, 1, tiling))
    assert len(configs) >= count
    return configs[:count]


class TestGetMany:
    """One query per batch of configurations, verification unchanged."""

    COUNT = 2000  # more rows than sqlite's smallest bound-variable limit

    def _filled(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        estimate = _evaluator().evaluate(CacheConfig(64, 8))
        configs = _many_configs(self.COUNT)
        rows = [(c, dataclasses.replace(estimate, config=c)) for c in configs]
        store.put_many("eval-a", rows)
        return store, dict(rows)

    def test_batch_larger_than_the_variable_limit(self, tmp_path):
        store, rows = self._filled(tmp_path)
        if hasattr(store._conn, "setlimit"):
            store._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
        selects = []
        store._conn.set_trace_callback(
            lambda sql: selects.append(sql) if sql.startswith("SELECT") else None
        )
        configs = list(rows) + [CacheConfig(64, 8, 2, 1)]  # one miss
        hits, misses = _counter("store.hits"), _counter("store.misses")
        found = store.get_many("eval-a", configs)
        store._conn.set_trace_callback(None)
        assert found == rows
        assert list(found) == list(rows)  # in request order
        assert len(selects) == 3  # ceil(2001 / 900)
        assert _counter("store.hits") == hits + self.COUNT
        assert _counter("store.misses") == misses + 1

    def test_duplicate_configurations(self, tmp_path):
        store, rows = self._filled(tmp_path)
        config = next(iter(rows))
        hits, misses = _counter("store.hits"), _counter("store.misses")
        assert store.get_many("eval-a", [config, config]) == {
            config: rows[config]
        }
        # Counted per requested configuration, as before batching.
        assert _counter("store.hits") == hits + 1
        assert _counter("store.misses") == misses + 1
        assert store.get("eval-a", config) == rows[config]

    def test_corrupt_row_inside_a_large_batch(self, tmp_path):
        store, rows = self._filled(tmp_path)
        conn = sqlite3.connect(store.path)
        with conn:
            [key] = conn.execute(
                "SELECT config_key FROM estimates WHERE rowid = 1500"
            ).fetchone()
            conn.execute(
                "UPDATE estimates SET estimate = '{torn' WHERE rowid = 1500"
            )
        conn.close()
        detected = _counter("store.corruption.detected")
        found = store.get_many("eval-a", list(rows))
        assert len(found) == self.COUNT - 1
        [torn] = [c for c in rows if config_key(c) == key]
        assert torn not in found
        assert all(found[c] == rows[c] for c in found)
        assert _counter("store.corruption.detected") == detected + 1
        assert store.stats()["quarantine"] == 1
        assert store.count("eval-a") == self.COUNT - 1


class TestJobPersistence:
    def test_job_records_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.db"))
        doc = {"job_id": "j1", "state": "queued", "nested": {"a": [1, 2]}}
        store.save_job("j1", doc)
        assert store.load_jobs() == [doc]
        store.save_job("j1", {"job_id": "j1", "state": "done"})
        assert store.load_jobs() == [{"job_id": "j1", "state": "done"}]
        store.delete_job("j1")
        assert store.load_jobs() == []


def _poison_estimate(path, text="{this is not json"):
    """Corrupt one estimate row in place, bypassing the store API."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE estimates SET estimate = ? WHERE rowid = 1",
                     (text,))
    conn.close()


class TestChecksums:
    def test_new_rows_carry_sha256_checksums(self, tmp_path):
        import hashlib

        store = open_store(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        eval_id = evaluator_fingerprint(evaluator)
        config = _configs()[0]
        store.put(eval_id, config, evaluator.evaluate(config))
        conn = sqlite3.connect(store.path)
        text, checksum = conn.execute(
            "SELECT estimate, checksum FROM estimates"
        ).fetchone()
        conn.close()
        assert checksum == hashlib.sha256(text.encode()).hexdigest()

    def test_corrupt_row_quarantined_and_reported_as_miss(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        eval_id = evaluator_fingerprint(evaluator)
        config = _configs()[0]
        store.put(eval_id, config, evaluator.evaluate(config))
        store.close()
        _poison_estimate(str(tmp_path / "r.db"))

        store = open_store(str(tmp_path / "r.db"))
        detected = _counter("store.corruption.detected")
        quarantined = _counter("store.corruption.quarantined")
        assert store.get(eval_id, config) is None
        assert _counter("store.corruption.detected") == detected + 1
        assert _counter("store.corruption.quarantined") == quarantined + 1
        stats = store.stats()
        assert stats["quarantine"] == 1
        assert stats["estimates"] == 0  # moved, not lurking

    def test_checksum_mismatch_alone_quarantines(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        eval_id = evaluator_fingerprint(evaluator)
        config = _configs()[0]
        store.put(eval_id, config, evaluator.evaluate(config))
        conn = sqlite3.connect(store.path)
        with conn:
            # Valid JSON, wrong bytes for the recorded checksum.
            conn.execute("UPDATE estimates SET checksum = ?", ("0" * 64,))
        conn.close()
        assert store.get(eval_id, config) is None
        assert store.stats()["quarantine"] == 1

    def test_get_many_skips_corrupt_rows(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        eval_id = evaluator_fingerprint(evaluator)
        configs = _configs()
        store.put_many(
            eval_id, [(c, evaluator.evaluate(c)) for c in configs]
        )
        _poison_estimate(store.path)
        found = store.get_many(eval_id, configs)
        assert len(found) == len(configs) - 1

    def test_corruption_transparently_reevaluated_byte_identically(
        self, tmp_path
    ):
        store = open_store(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        config = _configs()[0]
        [original] = _stored_run(store, evaluator, [config])
        _poison_estimate(store.path)
        # The corrupt row reads as a miss; the sweep recomputes and the
        # fresh estimate (equal to the original) repopulates the row.
        assert _stored_run(store, evaluator, [config]) == [original]
        assert store.get(evaluator_fingerprint(evaluator), config) == original
        assert store.stats()["quarantine"] == 1

    def test_manifest_and_trace_checksummed(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        store.save_manifest("job-1", {"schema": "repro.manifest/1"})
        store.save_trace("job-1", {"schema": "repro.trace/1"})
        assert store.load_manifest("job-1") == {"schema": "repro.manifest/1"}
        assert store.load_trace("job-1") == {"schema": "repro.trace/1"}
        conn = sqlite3.connect(store.path)
        with conn:
            conn.execute("UPDATE manifests SET doc = ?", ("{broken",))
        conn.close()
        assert store.load_manifest("job-1") is None
        assert store.stats()["quarantine"] == 1
        assert store.load_trace("job-1") is not None

    def test_legacy_rows_without_checksum_still_read(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        eval_id = evaluator_fingerprint(evaluator)
        config = _configs()[0]
        estimate = evaluator.evaluate(config)
        store.put(eval_id, config, estimate)
        conn = sqlite3.connect(store.path)
        with conn:  # pre-hardening rows have no checksum at all
            conn.execute("UPDATE estimates SET checksum = NULL")
        conn.close()
        assert store.get(eval_id, config) == estimate


class TestVerify:
    def _stored(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        evaluator = _evaluator()
        eval_id = evaluator_fingerprint(evaluator)
        configs = _configs()
        store.put_many(
            eval_id, [(c, evaluator.evaluate(c)) for c in configs]
        )
        return store, evaluator, eval_id, configs

    def test_clean_store_verifies_clean(self, tmp_path):
        store, _, _, configs = self._stored(tmp_path)
        store.save_manifest("j", {"a": 1})
        store.save_trace("j", {"b": 2})
        report = store.verify()
        assert report["clean"] is True
        assert report["corrupt"] == 0
        assert report["scanned"] == len(configs) + 2

    def test_audit_reports_without_touching(self, tmp_path):
        store, _, _, _ = self._stored(tmp_path)
        _poison_estimate(store.path)
        report = store.verify(repair=False)
        assert report["clean"] is False
        assert report["corrupt"] == 1
        assert report["corrupt_rows"][0]["table"] == "estimates"
        # Pure audit: the corrupt row is still where it was.
        assert store.stats()["quarantine"] == 0

    def test_repair_quarantines_and_backfills(self, tmp_path):
        store, evaluator, eval_id, configs = self._stored(tmp_path)
        conn = sqlite3.connect(store.path)
        with conn:  # one legacy row, one corrupt row
            conn.execute(
                "UPDATE estimates SET checksum = NULL WHERE rowid = 2"
            )
        conn.close()
        _poison_estimate(store.path)
        report = store.verify(repair=True)
        assert report["clean"] is True
        assert report["quarantined"] == 1
        assert report["checksums_added"] == 1
        assert store.stats()["quarantine"] == 1
        # After repair the store audits clean end to end.
        again = store.verify()
        assert again["clean"] is True and again["corrupt"] == 0
        assert again["missing_checksum"] == 0


class TestBusyRetry:
    def test_write_retries_on_locked_database(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        attempts = []

        def flaky(conn):
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        before = _counter("store.busy_retries")
        assert store._write(flaky) == "ok"
        assert len(attempts) == 3
        assert _counter("store.busy_retries") == before + 2

    def test_non_busy_errors_surface_immediately(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))

        def broken(conn):
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            store._write(broken)

    def test_retries_exhaust_and_surface(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))

        def always_locked(conn):
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store._write(always_locked)
