"""Unit tests for page frames and refcounting."""

import pytest

from repro.mem import Page, PAGE_SIZE


def test_new_page_is_zero_filled():
    page = Page()
    assert len(page.data) == PAGE_SIZE
    assert page.data == bytes(PAGE_SIZE)


def test_page_from_data_copies():
    src = bytearray(b"\x01" * PAGE_SIZE)
    page = Page(src)
    src[0] = 0xFF
    assert page.data[0] == 0x01


def test_page_rejects_wrong_size():
    with pytest.raises(ValueError):
        Page(b"short")


def test_refcount_lifecycle():
    page = Page()
    assert page.refs == 1
    page.incref()
    assert page.refs == 2
    page.decref()
    page.decref()
    assert page.refs == 0
    with pytest.raises(AssertionError):
        page.decref()


def test_fork_copy_is_independent():
    page = Page(b"\x07" * PAGE_SIZE)
    twin = page.fork_copy()
    twin.data[0] = 0x42
    assert page.data[0] == 0x07
    assert twin.refs == 1

