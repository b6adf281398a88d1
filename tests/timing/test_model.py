"""Cost-model unit tests."""

import pytest

from repro.timing.model import CostModel


def test_defaults_sane():
    cost = CostModel()
    assert cost.syscall > 0
    assert cost.page_cow > cost.page_map
    assert cost.net_latency > cost.net_msg


def test_with_replaces_fields():
    cost = CostModel()
    tweaked = cost.with_(syscall=1, ncpus=4)
    assert tweaked.syscall == 1
    assert tweaked.ncpus == 4
    assert cost.syscall != 1          # original untouched
    assert tweaked.page_cow == cost.page_cow


def test_message_cost_scales_with_bytes():
    cost = CostModel()
    small = cost.message(100)
    big = cost.message(100_000)
    assert big > small
    assert big - small == pytest.approx(99_900 * cost.net_byte, rel=0.01)


def test_tcp_adds_fixed_per_message():
    cost = CostModel()
    assert cost.message(1000, tcp=True) - cost.message(1000) == cost.tcp_extra
