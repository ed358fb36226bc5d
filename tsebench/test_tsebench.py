"""Self-tests of the benchmark itself (not of TSE).

    python3 -m pytest tsebench -q
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import loads  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def base():
    return loads.Baseline.of(loads.build_db("write_online"))


def head(script, n=400) -> bytes:
    return b"\n".join(step.as_bytes() for step in itertools.islice(script, n))


@pytest.mark.parametrize(
    "make", [loads.read_pinned_script, loads.write_online_script, loads.evolve_reader_script]
)
def test_scripts_are_byte_identical_for_a_seed(make, base):
    assert head(make(11, 0, base)) == head(make(11, 0, base))
    assert head(make(11, 0, base)) != head(make(12, 0, base))
    assert head(make(11, 0, base)) != head(make(11, 1, base))


def test_schema_change_sequence_is_deterministic():
    first, second = loads.build_db("evolve_small"), loads.build_db("evolve_small")
    a = loads.evolve_changes(5, first, count=20)
    b = loads.evolve_changes(5, second, count=20)
    assert [s.as_bytes() for s in a] == [s.as_bytes() for s in b]
    assert len(a) == 20 and all(s.version is not None for s in a)
    assert first.describe_view(loads.EVOLVE_VIEW) == second.describe_view(loads.EVOLVE_VIEW)


def test_write_targets_come_from_the_population(base):
    population = set(base.extents["Person"])
    for step in itertools.islice(loads.write_online_script(3, 1, base), 3000):
        for spec in client.update_specs(step.frame):
            for oid in spec.get("oids", ()):
                assert oid == loads.OWN or oid in population


def test_scripts_are_population_neutral(base):
    outstanding = 0
    for step in itertools.islice(loads.write_online_script(4, 0, base), 5000):
        if step.expect != "ok":
            continue
        for spec in client.update_specs(step.frame):
            outstanding += {"create": 1, "delete": -1}.get(spec["op"], 0)
            assert 0 <= outstanding <= loads.MAX_OUTSTANDING


def test_a_percentile_needs_ten_samples_beyond_it():
    assert client.percentile([1.0] * 999, 0.99) is None
    assert client.percentile([1.0] * 1000, 0.99) == 1.0
    assert client.percentile([1.0] * 99, 0.90) is None
    assert client.percentile(list(range(100)), 0.90) == 89


def test_server_cpu_is_scaled_to_the_reference_speed():
    # a CPU that runs the reference work at half speed doubles the raw time
    slow = {"cpu_s": 3.0, "probe_s": 2 * probe.REFERENCE_S}
    assert run.scaled(slow["cpu_s"], slow) == pytest.approx(1.5)
    result = client.RunResult(
        [client.Sample("write", "update", 0.01, True), client.Sample("poll", "migration_status", 0.001, True),
         client.Sample("abort", "apply_many", 0.02, True), client.Sample("write", "update", 0.01, False)],
        drains=[], elapsed=1.0, errors=[],
    )
    # drain polls and failed requests are not scripted work done
    assert run.cpu_ms_per_op(result, 1.5) == pytest.approx(750.0)


def test_the_probe_samples_its_own_cpu_time():
    speed = probe.Probe()
    assert speed.window(0)[0] > 0  # no sample yet: one is taken on demand
    speed.start()
    while len(speed.samples) < 3:
        time.sleep(probe.PERIOD_S)
    speed.stop()
    median, total = speed.window(1)
    assert 0 < median <= total and total == pytest.approx(sum(speed.samples[1:]))


def _judge(base):
    return client.Judge(base, [client.Ledger(), client.Ledger()], exact_reads=False)


def test_scripted_rejections_count_as_successes(base):
    judge = _judge(base)
    abort = loads.Step("abort", {"type": "apply_many", "updates": [], "id": 1}, expect="rejected")
    rejected = {"type": "error", "code": "rejected", "message": "x", "id": 1}
    assert judge.reply_ok(0, abort, abort.frame, rejected)
    assert not judge.reply_ok(0, abort, abort.frame, {"type": "result", "results": [], "id": 1})
    assert not judge.reply_ok(0, abort, abort.frame, {**rejected, "code": "internal"})


def test_unexpected_replies_count_as_failed(base):
    judge = _judge(base)
    count = loads.Step("read", {"type": "count", "class": "TA", "id": 2})
    n = len(base.extents["TA"])
    assert judge.reply_ok(0, count, count.frame, {"type": "result", "count": n, "id": 2})
    assert not judge.reply_ok(0, count, count.frame, {"type": "result", "count": n + 1, "id": 2})
    assert not judge.reply_ok(0, count, count.frame, {"type": "error", "code": "busy", "id": 2})
    result = client.RunResult(
        [client.Sample("read", "count", 0.001, True), client.Sample("abort", "apply_many", 0.002, True),
         client.Sample("write", "update", 0.003, False), client.Sample("lost", "disconnect", 0.0, False)],
        drains=[], elapsed=1.0, errors=[],
    )
    assert (result.attempted, result.failed) == (4, 2)


def _final_state(base, ledger):
    created = sorted(ledger.created - ledger.deleted)
    extents = {
        "Person": sorted(base.extents["Person"] + created),
        "Student": sorted(base.extents["Student"] + created),
        "TA": list(base.extents["TA"]),
    }
    objects = {str(oid): {"name": base.names.get(oid, "new"), "age": 30} for oid in extents["Person"]}
    for (oid, attr), value in ledger.values.items():
        objects[str(oid)][attr] = value
    return extents, objects


def test_the_final_check_fails_on_a_wrong_ledger(base):
    student = base.extents["Student"][0]
    ledger = client.Ledger(created={900001, 900002}, deleted={900002})
    ledger.values[(student, "age")] = 44
    extents, objects = _final_state(base, ledger)
    assert client.ledger_mismatches(base, [ledger, client.Ledger()], extents, objects) == []

    forgot_delete = client.Ledger(created={900001, 900002}, values=dict(ledger.values))
    assert client.ledger_mismatches(base, [forgot_delete, client.Ledger()], extents, objects)
    wrong_value = client.Ledger(created={900001, 900002}, deleted={900002}, values={(student, "age"): 45})
    assert client.ledger_mismatches(base, [wrong_value, client.Ledger()], extents, objects)
    objects[str(student)]["age"] = loads.ABORT_AGE
    assert client.ledger_mismatches(base, [ledger, client.Ledger()], extents, objects)


def test_a_short_run_is_correct_and_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "write_online",
         "--seed", "1", "--seconds", "3", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    payload = json.loads(out.stdout.strip().splitlines()[-1])
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] and payload["failed"] == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} <= set(payload["metrics"])
