"""The kflexctl CLI."""

import pathlib

import pytest

from repro.tools.kflexctl import main

EXAMPLE = pathlib.Path(__file__).parent.parent / "examples" / "listwalk.kasm"


@pytest.fixture
def kasm(tmp_path):
    def write(source: str) -> str:
        p = tmp_path / "prog.kasm"
        p.write_text(source)
        return str(p)

    return write


def test_verify_ok(capsys, kasm):
    path = kasm("mov64 r0, 7\nexit\n")
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "OK (kflex mode)" in out
    assert "cancellation points: 0" in out


def test_verify_example_file(capsys):
    assert main(["verify", str(EXAMPLE)]) == 0
    out = capsys.readouterr().out
    assert "unbounded loops:     1" in out


def test_verify_rejects_in_ebpf_mode(capsys):
    assert main(["verify", str(EXAMPLE), "--mode", "ebpf"]) == 1
    assert "error:" in capsys.readouterr().err


def test_disasm_plain_and_instrumented(capsys):
    assert main(["disasm", str(EXAMPLE)]) == 0
    plain = capsys.readouterr().out
    assert "cancelpt" not in plain
    assert main(["disasm", str(EXAMPLE), "--instrumented"]) == 0
    inst = capsys.readouterr().out
    assert "cancelpt" in inst and "guard" in inst


def test_run_reports_ret_and_cost(capsys, kasm):
    path = kasm("ldxdw r0, [r1+0]\nadd64 r0, 1\nexit\n")
    assert main(["run", path, "--ctx", "41", "--invoke", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("ret=42") == 2
    assert "cost=" in out


def test_run_cancellation_path(capsys, kasm):
    path = kasm("""
        mov64 r6, 1
    l:  jeq r6, 0, d
        add64 r6, 1
        ja l
    d:  mov64 r0, 0
        exit
    """)
    assert main(["run", path, "--quantum", "5000"]) == 0
    out = capsys.readouterr().out
    assert "watchdog" in out
    assert "unloaded" in out


def test_stats_reports_pipeline(capsys):
    assert main(["stats", str(EXAMPLE), "--loads", "3", "--invoke", "2"]) == 0
    out = capsys.readouterr().out
    assert "3 loads (2 warm)" in out  # repeats hit the program cache
    assert "verify" in out and "instrument" in out and "lower" in out
    assert "cache:" in out and "evictions" in out
    assert "pool reuses" in out


def test_stats_reports_compiled_tier(capsys, kasm):
    """A hot program tiers up once; the next load's engine binds the
    cached code.  The codegen stage and the tier counters (tier-ups,
    checkpoint deopts, generic-path sites) all show in ``kflexctl
    stats``."""
    path = kasm("""
        mov64 r6, 0
    l:  add64 r6, 1
        jlt r6, 3000, l
        mov64 r0, r6
        exit
    """)
    assert main(["stats", path, "--loads", "2", "--invoke", "2"]) == 0
    out = capsys.readouterr().out
    codegen = next(ln for ln in out.splitlines() if ln.strip().startswith("codegen"))
    assert codegen.split()[1:3] == ["2", "1"]  # generated once, bound twice
    tier = next(ln for ln in out.splitlines() if ln.startswith("compiled tier:"))
    assert tier == ("compiled tier: 2 tier-ups, 0 checkpoint deopts, "
                    "0 generic-path sites")


def test_stats_heapless_program(capsys, kasm):
    """A program with no heap references still loads through the
    pipeline (mode kflex allocates it a heap; the path must not trip
    on --loads 1 either)."""
    path = kasm("mov64 r0, 7\nexit\n")
    assert main(["stats", path, "--loads", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 loads (0 warm)" in out


def test_bad_source_errors(capsys, kasm):
    path = kasm("frobnicate r0\nexit\n")
    assert main(["verify", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_errors(capsys):
    assert main(["verify", "/nonexistent.kasm"]) == 1
    assert "error:" in capsys.readouterr().err


# -- network subcommands (net: real sockets) ---------------------------------


@pytest.mark.net
def test_loadtest_memcached_local_shards(capsys):
    rc = main([
        "loadtest", "--app", "memcached", "--shards", "2",
        "--clients", "2", "--requests", "30", "--keys", "16",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "loadtest memcached: 60/60 replies, 0 failures" in out
    assert "throughput:" in out and "p50=" in out
    assert "kernel fast path: 60" in out
    assert "sock_refs=0" in out


@pytest.mark.net
def test_loadtest_redis_userspace_needs_no_matcher(capsys):
    rc = main([
        "loadtest", "--app", "redis", "--shards", "1",
        "--clients", "2", "--requests", "20", "--keys", "8",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "loadtest redis: 40/40 replies, 0 failures" in out


@pytest.mark.net
def test_serve_runs_for_duration_then_drains(capsys):
    rc = main([
        "serve", "--app", "memcached", "--shards", "2",
        "--duration", "0.3",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "serving memcached on UDP ports" in out
    assert "server stopped" in out
    assert "quiescence:     sock_refs=0" in out


# -- durable-state subcommands (tier-1: file-backed but socket-free) ---------


def test_pin_pins_snapshot_recover_workflow(capsys, tmp_path):
    store = str(tmp_path / "store")
    rc = main([
        "pin", "maps/cache", "--store", store,
        "--max-entries", "64", "--put", "1=42", "--put", "2=0x2b",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "pinned maps/cache" in out and "2 entries written" in out

    assert main(["pins", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "maps/cache: seq 2" in out and "2 entries" in out

    assert main(["snapshot", "maps/cache", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "seq 2" in out and "WAL compacted" in out

    assert main(["recover", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "maps/cache: seq 2 (snapshot 2 + 0 replayed), 2 entries, clean" in out
    assert "recovery clean" in out


def test_pin_refuses_duplicate_and_bad_put(capsys, tmp_path):
    store = str(tmp_path / "store")
    assert main(["pin", "maps/m", "--store", store]) == 0
    capsys.readouterr()
    # Durable state already exists at that path: recover it instead.
    assert main(["pin", "maps/m", "--store", store]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["pin", "maps/n", "--store", store, "--put", "oops"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_recover_repairs_torn_wal(capsys, tmp_path):
    store = str(tmp_path / "store")
    assert main([
        "pin", "maps/m", "--store", store,
        "--put", "1=1", "--put", "2=2", "--put", "3=3",
    ]) == 0
    capsys.readouterr()
    wal = tmp_path / "store" / "maps/m" / "wal"
    wal.write_bytes(wal.read_bytes()[:-5])  # tear the last record
    assert main(["recover", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "seq 2" in out and "torn" in out
    assert "crash damage repaired" in out
    # The repair truncated the torn suffix: a second pass is clean.
    assert main(["recover", "--store", store]) == 0
    assert "recovery clean" in capsys.readouterr().out


def test_recover_empty_store_says_so(capsys, tmp_path):
    assert main(["recover", "--store", str(tmp_path / "empty")]) == 0
    assert "nothing to recover" in capsys.readouterr().out


@pytest.mark.net
def test_serve_with_store_persists_across_restart(capsys, tmp_path):
    """Two serve runs over one --store: the second recovers shard state."""
    store = str(tmp_path / "store")
    rc = main([
        "serve", "--app", "memcached", "--shards", "1",
        "--duration", "0.2", "--store", store,
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    # The shard pinned its map durably under DIR/shard0.
    assert main(["pins", "--store", store + "/shard0"]) == 0
    assert "memcached/cache" in capsys.readouterr().out
    rc = main([
        "serve", "--app", "memcached", "--shards", "1",
        "--duration", "0.2", "--store", store,
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "server stopped" in out


# -- verifier profiles & the verification service ----------------------------


@pytest.mark.verify_svc
def test_profiles_lists_the_registry(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    for name in ("default", "strict", "fast-rollout", "canary"):
        assert name in out
    assert "inherits fast-rollout" in out  # canary's lineage is shown


@pytest.mark.verify_svc
def test_verify_with_profile_and_workers(capsys, kasm):
    path = kasm("mov64 r0, 7\nexit\n")
    assert main(["verify", path, "--profile", "strict",
                 "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "OK (kflex mode, profile strict)" in out
    assert "verification service" in out
    assert "explored" in out and "differential savings" in out


@pytest.mark.verify_svc
def test_verify_unknown_profile_names_the_known_set(capsys, kasm):
    path = kasm("mov64 r0, 7\nexit\n")
    assert main(["verify", path, "--profile", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "strict" in err


@pytest.mark.verify_svc
def test_verify_profile_mode_overrides_mode_flag(capsys):
    # ebpf-compat resolves to eBPF mode, so the heap-using example is
    # rejected even without --mode ebpf.
    assert main(["verify", str(EXAMPLE), "--profile", "ebpf-compat"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.verify_svc
def test_stats_reports_verify_subtimings(capsys):
    assert main(["stats", str(EXAMPLE), "--profile", "default"]) == 0
    out = capsys.readouterr().out
    assert "verify:explore" in out and "verify:merge" in out


@pytest.mark.verify_svc
def test_serve_profile_requires_store(capsys):
    rc = main([
        "serve", "--app", "memcached", "--shards", "1",
        "--duration", "0.1", "--profile", "strict",
    ])
    assert rc == 1
    assert "--store" in capsys.readouterr().err
