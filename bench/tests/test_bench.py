"""Tests of the benchmark itself: seeded generators, verdict checks that
catch a planted wrong expectation, the tracer's self-time arithmetic, the
speed-scaled clock, and BENCHMARK.json agreeing with the metrics the harness
prints.

Run with:  python3 -m pytest -q bench/tests
"""

import copy
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import clock  # noqa: E402
import gens  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eqcartan import cartan, linalg  # noqa: E402


def _components(diff):
    return [dict(op.entries) for op in diff.components]


def test_generators_reproduce_their_instances_from_a_seed():
    a = gens.acyclic_differential(gens.seeded(7, "t"), gens.SETUP_F5, 8)
    b = gens.acyclic_differential(gens.seeded(7, "t"), gens.SETUP_F5, 8)
    c = gens.acyclic_differential(gens.seeded(8, "t"), gens.SETUP_F5, 8)
    assert _components(a) == _components(b)
    assert _components(a) != _components(c)

    nf = [gens.normal_form(gens.seeded(3, "nf"), gens.SETUP_Q, 1, 2, 1, 4)
          for _ in range(2)]
    assert _components(nf[0][0]) == _components(nf[1][0])
    assert nf[0][1] == nf[1][1]

    z = [gens.z2_system(gens.seeded(5, "z2"), 3) for _ in range(2)]
    assert z[0] == z[1]
    assert (gens.differential_document(a)
            == gens.differential_document(b))

    sweep = workloads._sweep_order(11)
    assert sweep == workloads._sweep_order(11)
    assert sorted(sweep) == list(range(gens.SWEEP_SIZE))


def _failed_share(instances):
    clock = run.Clock()
    records = [run.run_instance(inst, None, clock) for inst in instances]
    records *= 11  # end_to_end needs a tail percentile
    metrics, _ = run.end_to_end(records, 0.1, 1.0)
    return 1 - metrics["certified_share"]


def test_planted_wrong_torsion_order_fails_the_instance():
    diff, expected = gens.normal_form(gens.seeded(1, "plant"), gens.SETUP_Q,
                                      1, 2, 1, 4)
    wrong = copy.deepcopy(expected)
    entry = next(e for e in wrong["per_degree"].values()
                 if e["torsion_orders"])
    entry["torsion_orders"][0] = 3 - entry["torsion_orders"][0]  # 1 <-> 2
    entry["torsion_orders"].sort()

    def inst(exp):
        return workloads.Instance(
            "torsion", lambda: workloads._torsion_pipeline(diff),
            workloads._check_torsion(exp))

    assert _failed_share([inst(expected)]) == 0
    assert _failed_share([inst(expected), inst(wrong)]) > 0


def test_planted_wrong_cpn_entry_fails_the_instance():
    data, Q, expected = gens.cpn_lift(2, 3)
    wrong = copy.deepcopy(expected)
    col, (coeff, power) = next(iter(wrong["gamma_q"][0].items()))
    wrong["gamma_q"][0][col] = (coeff + 1, power)

    def inst(exp):
        return workloads.Instance(
            "cpn", lambda: workloads._cpn_pipeline(data, Q, 3),
            workloads._check_cpn(exp))

    assert _failed_share([inst(expected)]) == 0
    assert _failed_share([inst(wrong)]) == 1


def test_self_time_is_span_minus_children():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["b", 5.0, 9.0, 0],
             ["a", 6.0, 7.0, 2]]
    got = tracing.self_times(spans)
    assert got == {"root": 3.0, "a": 4.0, "b": 3.0}


def test_clock_samples_inside_a_long_body_and_scales_its_time():
    c = clock.Clock()
    with c.timed() as timing:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            clock._loop()
    during = len(c.samples) - 2  # one sample before, one after
    assert during >= 3
    assert 0 < timing.wall < timing.elapsed  # the samples are taken off
    loop = sum(c.samples) / len(c.samples)
    assert abs(timing.scaled - timing.wall * clock.REFERENCE_S / loop) \
        < 1e-9
    with c.timed() as quick:  # no timer sample in a short body
        pass
    assert quick.wall == quick.elapsed


def test_tracer_records_spans_and_restores_the_modules():
    original = cartan.cohomology_over_novikov_field
    setup = gens.SETUP_Q
    matrix = [[setup.one(), setup.zero()], [setup.zero(), setup.one()]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cartan.cohomology_over_novikov_field is not original
        linalg.row_reduce(matrix, setup)  # outside an instance: not recorded
        with tracer.instance():
            linalg.row_reduce(matrix, setup)
    finally:
        tracer.uninstall()
    assert cartan.cohomology_over_novikov_field is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["instance", "linalg.row_reduce"]
    assert names.count("novikov.invert_truncated") == 2  # one per pivot
    assert all(s[3] == 1 for s in tracer.spans[2:])  # inside row_reduce
    assert tracer.counts["linalg.row_reduce.calls"] == 1
    assert tracer.counts["linalg.row_reduce.cells"] == 4
    assert tracer.counts["linalg.row_reduce.pivots"] == 2
    assert tracer.counts["novikov.elem_mul.calls"] > 0


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
