"""The serving layer: sharding, admission control, determinism.

Covers the contracts ``cli serve`` and the CI ``serve-smoke`` job rely
on: hash routing is total and stable (page conservation across
shards), token-bucket quotas actually limit tenants under saturation,
the shared hot set lands on the shard its hash says it should, the sim
runtime produces byte-identical records for a same-seed rerun, and the
correctness checker is rejected on the native runtime through the same
:class:`~repro.errors.ConfigError` path as ``cli run``.
"""

from __future__ import annotations

import json

import pytest

from repro.bufmgr.tags import PageId
from repro.errors import ConfigError
from repro.serve import ServeConfig, ServeFrontend, TokenBucket, run_serve
from repro.serve.shard import shard_of
from repro.serve.tenants import HOT_SPACE


def tiny_config(**overrides) -> ServeConfig:
    base = dict(n_shards=2, n_tenants=3, sessions_per_tenant=2,
                pages_per_tenant=48, hot_pages=8, target_requests=300,
                n_processors=4, seed=13)
    base.update(overrides)
    return ServeConfig(**base)


# -- routing and page conservation ----------------------------------------


def test_every_page_routes_to_exactly_one_shard():
    frontend = ServeFrontend(tiny_config(n_shards=4))
    frontend.run()
    pages = frontend.all_pages()
    assert len(pages) == len(set(pages))
    for page in pages:
        owners = [shard.shard_id for shard in frontend.shards
                  if page in shard.resident_pages()]
        assert owners == [frontend.shard_for(page)], (
            f"{page} resident on shards {owners}, "
            f"routed to {frontend.shard_for(page)}")


def test_page_conservation_across_shards():
    """Warm residency must partition the page space: no page lost to
    the cracks between shards, none duplicated across them."""
    frontend = ServeFrontend(tiny_config(n_shards=4))
    frontend.run()
    resident = [page for shard in frontend.shards
                for page in shard.resident_pages()]
    assert len(resident) == len(set(resident))
    assert set(resident) == set(frontend.all_pages())


def test_routing_is_stable_and_total():
    for n_shards in (1, 2, 4, 7):
        for page in [PageId("tenant00", 3), PageId(HOT_SPACE, 0),
                     PageId("tenant05", 127)]:
            first = shard_of(page, n_shards)
            assert 0 <= first < n_shards
            assert shard_of(page, n_shards) == first


def test_accesses_land_on_the_routed_shard_only():
    config = tiny_config(n_shards=3, hot_fraction=0.0)
    frontend = ServeFrontend(config)
    result = frontend.run()
    assert result.accesses == sum(
        record["accesses"] for record in result.shard_records)
    # With no misses (shards sized to their slice), every access is a
    # hit on the shard that owns the page — cross-shard leakage would
    # show up as misses.
    assert result.hits == result.accesses


def test_every_lock_of_a_shard_carries_its_prefix():
    """Only a pgDist shard's partition 0 used to be scoped; partitions
    1.. collided across shards in every per-lock metric (reachable as
    ``cli macro --systems pgDist --shards 2``)."""
    from repro.hardware.machines import ALTIX_350
    from repro.serve.shard import BufferShard
    from repro.simcore.engine import Simulator

    sim = Simulator()
    names = [[lock.name for lock in
              BufferShard(sim, shard_id, "pgDist", 64,
                          ALTIX_350).handler.locks]
             for shard_id in range(2)]
    assert all(len(shard_names) >= 2 for shard_names in names)
    for shard_id, shard_names in enumerate(names):
        assert all(name.startswith(f"shard{shard_id}:")
                   for name in shard_names)
    assert not set(names[0]) & set(names[1])


def test_hot_pages_collide_on_their_hashed_shard():
    """The shared hot set is cross-tenant by construction: every
    tenant's sessions must touch the shard each hot page hashes to."""
    config = tiny_config(n_shards=4, hot_fraction=0.5, hot_pages=4)
    frontend = ServeFrontend(config)
    frontend.run()
    hot_shards = {shard_of(PageId(HOT_SPACE, block), 4)
                  for block in range(4)}
    for shard_id in hot_shards:
        record = frontend.shards[shard_id].to_record()
        assert record["accesses"] > 0
        for page in (PageId(HOT_SPACE, block) for block in range(4)):
            if shard_of(page, 4) == shard_id:
                assert page in frontend.shards[shard_id].resident_pages()


# -- admission control ----------------------------------------------------


def test_token_bucket_grants_in_order_and_paces():
    bucket = TokenBucket(rate_per_sec=1_000_000.0, burst=2)
    assert bucket.reserve(0.0) == 0.0
    assert bucket.reserve(0.0) == 0.0
    first = bucket.reserve(0.0)
    second = bucket.reserve(0.0)
    assert first == pytest.approx(1.0)   # one token = 1 us at 1M/s
    assert second == pytest.approx(2.0)  # queued behind the first
    # After real time passes, tokens accrue again (capped at burst).
    assert bucket.reserve(100.0) == 0.0


def test_unlimited_bucket_never_waits():
    bucket = TokenBucket(rate_per_sec=None, burst=1)
    assert all(bucket.reserve(float(i)) == 0.0 for i in range(50))


def test_quota_enforced_under_saturation():
    """With think-time-free sessions hammering a tight quota, admitted
    throughput must track the quota, not the offered load."""
    quota = 2_000.0  # requests per simulated second, per tenant
    result = run_serve(tiny_config(
        n_tenants=2, sessions_per_tenant=3, quota_per_sec=quota,
        quota_burst=4, target_requests=400))
    elapsed_s = result.elapsed_us / 1_000_000.0
    for tenant in result.tenant_records:
        admitted_rate = tenant["completed"] / elapsed_s
        assert admitted_rate <= quota * 1.15, (
            f'{tenant["tenant"]} ran at {admitted_rate:.0f} req/s '
            f"against a {quota:.0f} req/s quota")
        assert tenant["throttled"] > 0


def test_quota_splits_fairly_across_tenants():
    result = run_serve(tiny_config(
        n_tenants=3, quota_per_sec=1_500.0, target_requests=450))
    completed = [t["completed"] for t in result.tenant_records]
    assert min(completed) > 0
    assert max(completed) <= min(completed) * 1.5


def test_backpressure_counts_at_tiny_depth():
    result = run_serve(tiny_config(
        n_shards=1, n_tenants=4, sessions_per_tenant=3,
        max_queue_depth=1, target_requests=300))
    shard = result.shard_records[0]
    assert shard["backpressure_events"] > 0
    assert shard["peak_in_flight"] >= 1
    assert result.requests >= 300


# -- determinism ----------------------------------------------------------


def test_sim_record_is_byte_identical_across_runs():
    config = tiny_config(quota_per_sec=3_000.0, skew=0.6)
    first = json.dumps(run_serve(config).to_dict(), sort_keys=True)
    second = json.dumps(run_serve(config).to_dict(), sort_keys=True)
    assert first == second


def test_seed_changes_the_run():
    config = tiny_config()
    base = run_serve(config).to_dict()
    reseeded = run_serve(config.with_params(seed=14)).to_dict()
    assert base != reseeded


def test_serve_grid_record_shape():
    from repro.serve import serve_grid
    record = serve_grid(tiny_config(target_requests=120),
                        [1, 2], [2], [0.4, 0.9])
    assert record["kind"] == "serve-grid"
    assert len(record["cells"]) == 4
    for cell in record["cells"]:
        assert len(cell["shards"]) == cell["n_shards"]
        assert len(cell["tenants"]) == cell["n_tenants"]
        assert cell["requests"] >= 120


# -- runtime gating -------------------------------------------------------


def test_native_rejects_checker_like_cli_run():
    from repro.check.checker import CorrectnessChecker
    config = tiny_config(runtime="native")
    with pytest.raises(ConfigError) as excinfo:
        ServeFrontend(config, checker=CorrectnessChecker())
    # Same error path (verbatim message) as run_experiment's native
    # rejection — one sim-only story for the checker everywhere.
    assert "shadows the sim lock protocol" in str(excinfo.value)
    assert "runtime='sim'" in str(excinfo.value)


def test_cli_serve_native_check_exits_nonzero(tmp_path):
    from repro.harness.cli import serve_main
    with pytest.raises(ConfigError):
        serve_main(["--runtime", "native", "--check",
                    "--shards", "1", "--tenants", "1",
                    "--requests", "20", "--out", str(tmp_path)])


def test_checker_accepts_sharded_sim_run():
    from repro.check.checker import CorrectnessChecker
    result = run_serve(tiny_config(target_requests=150),
                       checker=CorrectnessChecker())
    assert result.requests >= 150


def test_native_runtime_matches_sim_accounting():
    config = tiny_config(runtime="native", target_requests=150,
                         max_sim_time_us=60_000_000.0)
    result = run_serve(config)
    assert result.requests >= 150
    assert result.accesses == sum(
        record["accesses"] for record in result.shard_records)


def test_config_validation_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        ServeConfig(n_shards=0).validate()
    with pytest.raises(ConfigError):
        ServeConfig(system="pgDist").validate()
    with pytest.raises(ConfigError):
        ServeConfig(hot_fraction=0.2, hot_pages=0).validate()
    with pytest.raises(ConfigError):
        ServeConfig(runtime="mp").validate()


# -- CLI and dashboard ----------------------------------------------------


def test_cli_serve_writes_deterministic_artifacts(tmp_path, capsys):
    from repro.harness.cli import serve_main
    args = ["--shards", "2", "--tenants", "2", "--skews", "0.5",
            "--requests", "120", "--quota", "3000"]
    assert serve_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert serve_main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "serve.json").read_bytes()
    second = (tmp_path / "b" / "serve.json").read_bytes()
    assert first == second
    dash = (tmp_path / "a" / "serve_dashboard.html").read_text()
    assert dash == (tmp_path / "b" / "serve_dashboard.html").read_text()
    assert "Per-shard contention" in dash
    assert "shard0" in dash and "shard1" in dash
    capsys.readouterr()


def test_serve_page_renders_heatmap_for_ragged_shards():
    from repro.harness.dashboard import render_serve_page
    from repro.serve import serve_grid
    record = serve_grid(tiny_config(target_requests=100),
                        [1, 2], [2], [0.8])
    page = render_serve_page(record)
    assert page.count("<svg") >= 1
    assert "1s×2t@θ0.8" in page and "2s×2t@θ0.8" in page
    assert render_serve_page(record) == page
