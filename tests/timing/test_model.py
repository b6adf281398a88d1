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
    tweaked = cost.with_(msg_batch=1, ncpus=4)
    assert tweaked.msg_batch == 1
    assert tweaked.ncpus == 4
    assert cost.msg_batch != 1        # original untouched
    assert tweaked.page_cow == cost.page_cow


@pytest.mark.parametrize("field, value", [
    ("msg_batch", 0), ("msg_batch", -3), ("msg_batch", True),
    ("msg_batch", 2.0), ("retx_limit", -1), ("retx_limit", False),
    ("ncpus", 0), ("ncpus", True),
])
def test_a_bad_count_is_refused_naming_it(field, value):
    """No count is clamped downstream: a batch of fewer than one page,
    a negative retry budget or a node without a CPU is refused here."""
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        CostModel(**{field: value})
    with pytest.raises(ValueError, match=field):
        CostModel().with_(**{field: value})


def test_the_least_counts_are_accepted():
    cost = CostModel(msg_batch=1, retx_limit=0, ncpus=1)
    assert (cost.msg_batch, cost.retx_limit, cost.ncpus) == (1, 0, 1)


def test_message_cost_scales_with_bytes():
    cost = CostModel()
    small = cost.message(100)
    big = cost.message(100_000)
    assert big > small
    assert big - small == pytest.approx(99_900 * cost.net_byte, rel=0.01)


def test_tcp_adds_fixed_per_message():
    cost = CostModel()
    assert cost.message(1000, tcp=True) - cost.message(1000) == cost.tcp_extra
