"""Self-tests of the benchmark, at reduced sizes.

    PYTHONPATH=src:. python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import cProfile
import heapq
import re

import numpy as np
import pytest

from perfbench import compare, layers, run

run.use_checkout_source()

from perfbench import workloads  # noqa: E402  (needs the checkout's src)

#: every workload, small: the shapes the tests pass to the factories
SMALL = {
    "fine352": {"images": 16, "ipn": 8, "kinds": "srb" * 3},
    "xscale3k": {"images": 32, "ipn": 1, "kinds": "bssr"},
    "cg128": {"images": 16, "ipn": 8, "unknowns": 256, "iters": 5},
    "hpl64": {"images": 4, "ipn": 2, "n": 256, "nb": 64},
    "tables_cold": {"nodes": (2,)},
    "tables_warm": {"nodes": (2,)},
}


def small(name, seed, workdir, golden=None, jobs=2):
    factory, _key = workloads.WORKLOADS[name]
    return factory(seed, golden, jobs, workdir, **SMALL[name])


@pytest.fixture(scope="module")
def goldens(tmp_path_factory):
    """Golden entries for the small shapes, computed like ``--regen-golden``."""
    workdir = tmp_path_factory.mktemp("golden")
    out = {}
    for name in SMALL:
        if name == "tables_warm":
            out[name] = out["tables_cold"]
        else:
            out[name] = small(name, 1234, workdir, jobs=1).reference()
    return out


def test_workloads_match_benchmark_json():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(SMALL) == set(workloads.WORKLOADS)


def test_benchmark_json_schema():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {f"{layer}.self_s" for layer in layers.LAYERS} <= set(names)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(SMALL))
def test_every_metric_emitted_with_unit(name, trace, goldens, tmp_path):
    spec = run.load_spec()
    record = run.measure(name, 7, 0.0, trace, 2, tmp_path,
                         golden=goldens[name], shape=SMALL[name])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert record["metrics"] == {
        m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted}
    assert record["correct"], record["checks"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    values = {k: v["value"] for k, v in record["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    else:
        assert abs(sum(values[f"{layer}.share"] for layer in layers.LAYERS) - 1) < 1e-9
        assert values["trace.overhead"] > 0
        assert "trace_identical" in record["checks"]


@pytest.mark.parametrize("name,perturb", [
    ("fine352", lambda g: g.update(ref_time=g["ref_time"] + 1e-9)),
    ("fine352", lambda g: g["traffic"].__setitem__(0, g["traffic"][0] + 1)),
    ("hpl64", lambda g: g.update(seconds=g["seconds"] * (1 + 1e-12))),
    ("tables_cold", lambda g: g.update(text=g["text"].replace("1", "2", 1))),
])
def test_perturbed_golden_raises_error_rate(name, perturb, goldens, tmp_path):
    golden = copy.deepcopy(goldens[name])
    perturb(golden)
    record = run.measure(name, 7, 0.0, False, 1, tmp_path, golden=golden,
                         shape=SMALL[name])
    assert not record["correct"]
    assert record["failed"] >= 1


@pytest.mark.parametrize("name", ["fine352", "xscale3k", "cg128", "hpl64"])
def test_seeds_change_inputs_not_simulated_times(name, tmp_path):
    a = small(name, 1, tmp_path)
    b = small(name, 2, tmp_path)
    if name == "hpl64":
        assert a.matrix_seed != b.matrix_seed
    else:
        inputs = "b" if name == "cg128" else "values"
        assert not np.array_equal(getattr(a, inputs), getattr(b, inputs))
    ra, rb = a.simulate(), b.simulate()
    assert ra.time == rb.time
    assert ra.traffic == rb.traffic
    if name != "hpl64":  # HPL reports only times, not the factors
        assert workloads.digest(ra.results) != workloads.digest(rb.results)


def test_seed_permutes_tables_not_their_text(tmp_path):
    a = small("tables_cold", 1, tmp_path, jobs=1)
    b = small("tables_cold", 2, tmp_path, jobs=1)
    order_a, order_b = a.rng.permutation(a.ops), b.rng.permutation(b.ops)
    assert list(order_a) != list(order_b)
    assert a.sweep(None, 1, order_a)[0] == b.sweep(None, 1, order_b)[0]


def test_layer_map():
    repro_dir, numpy_dir, bench_dir = layers.package_dirs()
    owner = {
        "sim/engine.py": "engine",
        "runtime/conduit.py": "conduit",
        "runtime/program.py": "runtime",
        "collectives/macro.py": "macro",
        "collectives/reduce.py": "collectives",
        "baselines/mpi.py": "collectives",
        "hpl/panel.py": "kernel",
        "exec/pool.py": "exec",
        "bench/cells.py": "other",
    }
    for rel, layer in owner.items():
        assert layers.layer_of_file(repro_dir + rel) == layer, rel
    assert layers.layer_of_file(numpy_dir + "linalg/linalg.py") == "kernel"
    assert layers.layer_of_file(bench_dir + "workloads.py") == "other"
    # the standard library works for its callers
    assert layers.layer_of_file(heapq.__file__) is None


def test_attribution_follows_callers(tmp_path):
    """Standard-library and C time lands in the calling layer."""
    from repro.exec import ResultCache

    cache = ResultCache(root=tmp_path)
    profile = cProfile.Profile()
    profile.enable()
    for i in range(200):
        cache.put(f"{i:064x}", list(range(50)))
    profile.disable()
    self_s, _edges = layers.attribute(profile)
    assert self_s["exec"] > 0.9 * sum(self_s.values())


def test_compare_verdicts():
    base = [100.0 + (i % 5) for i in range(10)]  # spread (IQR / median) 2.5%
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, "lower") == "gain"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "lower") == "regression"
    assert compare.verdict(base, [v * 1.01 for v in base], 0.1, "lower") == "same"
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, "higher") == "regression"
    noisy = [100.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0, 100.0, 80.0, 120.0]
    assert compare.verdict(noisy, noisy[::-1], 0.1, "lower") == "unresolved"
    # 9 pairs is too few to claim a gain, however large
    assert compare.verdict(base[:9], [v * 0.5 for v in base[:9]], 0.1, "lower") == "unresolved"
    assert compare.count_verdict([5, 5, 5], [5, 5]) == "same"
    assert compare.count_verdict([5, 5, 5], [5, 6]) == "changed"
    assert compare.is_count("macro.replays")
    assert not compare.is_count("engine.self_s")
    assert not compare.is_count("trace.overhead")
