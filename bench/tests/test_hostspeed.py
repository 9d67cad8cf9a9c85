import time

import pytest

from hostspeed import Sampler, at_reference, probe


def test_a_host_slowdown_the_probes_share_cancels():
    # two passes of three items; the host runs 1.5x slower in the second
    latencies = [[0.10, 0.20, 0.30], [0.15, 0.30, 0.45]]
    spans = [[(0, 1), (1, 2), (2, 3)], [(3, 4), (4, 5), (5, 6)]]
    probes = [0.002] * 3 + [0.003] * 3
    scaled = at_reference(latencies, spans, probes, 0.002, 0)
    assert scaled == [pytest.approx([0.10, 0.20, 0.30])] * 2


def test_a_slower_program_stays_slower():
    probes = [0.002, 0.004, 0.002, 0.002, 0.002]
    spans = [[(0, 0), (1, 2), (2, 3), (3, 5)]]
    scaled = at_reference([[1.0, 1.0, 1.0, 2.0]], spans, probes, 0.002, 1)
    assert scaled[0] == pytest.approx([1.0, 1.0, 1.0, 2.0])   # the slow probe is outvoted
    # an item with no probe of its own takes the margin on each side
    assert at_reference([[1.0]], [[(1, 1)]], [0.004, 0.004], 0.002, 1) == [[0.5]]


def test_ticks_inside_an_item_are_taken_out_of_its_latency():
    with Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    net, (first, end) = sampler.exclude(t0, t1)
    assert end - first >= 3            # one tick every 20 ms
    ticks = sum(sampler.ends[k] - sampler.starts[k] for k in range(first, end))
    assert net == pytest.approx(t1 - t0 - ticks)
    assert len(sampler.times) >= end - first + 2  # and one on entry and exit
    assert all(t > 0 for t in sampler.times)
    assert probe() > 0
