"""Simulated MMU: allocation, permissions, mprotect, faults."""

import numpy as np
import pytest

from repro.errors import SegmentationFault
from repro.sim.clock import VirtualClock
from repro.sim.memory import (
    AddressSpace,
    MemoryLayout,
    PAGE_SIZE,
    Permission,
    page_of,
    pages_spanned,
    payload_nbytes,
)


@pytest.fixture
def space():
    return AddressSpace(pid=1, clock=VirtualClock())


def test_alloc_returns_page_aligned_buffer(space):
    buffer = space.alloc(100, tag="x")
    assert buffer.address % PAGE_SIZE == 0
    assert buffer.nbytes == 100


def test_allocations_do_not_overlap(space):
    buffers = [space.alloc(3 * PAGE_SIZE) for _ in range(10)]
    ranges = sorted((b.address, b.end) for b in buffers)
    for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
        assert end_a <= start_b


def test_guard_page_between_allocations(space):
    a = space.alloc(10)
    b = space.alloc(10)
    # the page right after a's last page is unmapped
    gap_addr = (page_of(a.end - 1) + 1) * PAGE_SIZE
    assert gap_addr < b.address
    assert space.permission_of(gap_addr) == Permission.NONE


def test_store_and_load_roundtrip(space):
    buffer = space.alloc_object({"k": 1}, tag="cfg")
    assert space.load(buffer.buffer_id) == {"k": 1}
    space.store(buffer.buffer_id, {"k": 2})
    assert space.load(buffer.buffer_id) == {"k": 2}


def test_store_grows_mapping_for_larger_payload(space):
    buffer = space.alloc_object(np.zeros(4), tag="arr")
    big = np.zeros(PAGE_SIZE)  # 8 pages of float64
    space.store(buffer.buffer_id, big)
    assert buffer.nbytes == big.nbytes
    space.check(buffer.address, buffer.nbytes, Permission.WRITE)


def test_mprotect_read_only_blocks_store(space):
    buffer = space.alloc_object([1, 2, 3], tag="data")
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    with pytest.raises(SegmentationFault):
        space.store(buffer.buffer_id, [9])
    assert space.load(buffer.buffer_id) == [1, 2, 3]


def test_mprotect_restores_write(space):
    buffer = space.alloc_object([1], tag="data")
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    space.protect_buffer(buffer.buffer_id, Permission.rw())
    space.store(buffer.buffer_id, [2])
    assert space.load(buffer.buffer_id) == [2]


def test_mprotect_unmapped_page_faults(space):
    with pytest.raises(SegmentationFault):
        space.mprotect(0xDEAD_0000, 10, Permission.ro())


def test_mprotect_charges_clock(space):
    buffer = space.alloc(10)
    before = space.clock.now_ns
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    assert space.clock.now_ns > before
    assert space.mprotect_calls == 1


def test_raw_write_hits_containing_buffer(space):
    buffer = space.alloc_object("original", tag="var")
    corrupted = space.raw_write(buffer.address + 1, 4, value="evil")
    assert corrupted.buffer_id == buffer.buffer_id
    assert space.load(buffer.buffer_id) == "evil"


def test_raw_write_to_unmapped_address_faults(space):
    with pytest.raises(SegmentationFault):
        space.raw_write(0xBAD_0000, 8, value="x")


def test_raw_write_to_read_only_faults(space):
    buffer = space.alloc_object("secret", tag="var")
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    with pytest.raises(SegmentationFault):
        space.raw_write(buffer.address, 8, value="evil")
    assert space.load(buffer.buffer_id) == "secret"


def test_raw_read(space):
    buffer = space.alloc_object(42, tag="var")
    assert space.raw_read(buffer.address, 8) == 42


def test_free_unmaps(space):
    buffer = space.alloc_object([1], tag="tmp")
    space.free(buffer.buffer_id)
    with pytest.raises(SegmentationFault):
        space.load(buffer.buffer_id)
    assert space.permission_of(buffer.address) == Permission.NONE


def test_find_buffer_returns_most_recent(space):
    space.alloc_object(1, tag="dup")
    latest = space.alloc_object(2, tag="dup")
    assert space.find_buffer("dup").buffer_id == latest.buffer_id


def test_find_buffer_missing_returns_none(space):
    assert space.find_buffer("ghost") is None


def test_buffers_in_state(space):
    space.alloc(8, origin_state="initialization")
    space.alloc(8, origin_state="data_loading")
    space.alloc(8, origin_state="data_loading")
    assert len(space.buffers_in_state("data_loading")) == 2
    assert len(space.buffers_in_state("storing")) == 0


def test_is_writable_reflects_protection(space):
    buffer = space.alloc(8)
    assert space.is_writable(buffer.buffer_id)
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    assert not space.is_writable(buffer.buffer_id)


def test_is_writable_probes_are_not_write_denials(space):
    # Probing a frozen buffer is not a write attempt: five probes and no
    # write must leave the denial counter at zero.
    buffer = space.alloc(8)
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    for _ in range(5):
        assert not space.is_writable(buffer.buffer_id)
    assert space.write_denials == 0
    with pytest.raises(SegmentationFault):
        space.store(buffer.buffer_id, [1.0])
    assert space.write_denials == 1


def test_is_writable_never_faults_on_unmapped_pages(space):
    buffer = space.alloc(8)
    space.free(buffer.buffer_id)
    assert not space.is_writable(buffer.buffer_id)


def test_resident_bytes(space):
    space.alloc(100)
    space.alloc(200)
    assert space.resident_bytes == 300


def test_pages_spanned_boundaries():
    assert list(pages_spanned(0, PAGE_SIZE)) == [0]
    assert list(pages_spanned(0, PAGE_SIZE + 1)) == [0, 1]
    assert list(pages_spanned(PAGE_SIZE - 1, 2)) == [0, 1]
    assert list(pages_spanned(100, 0)) == []


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros((4, 4))) == 128

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_string_utf8(self):
        assert payload_nbytes("héllo") == len("héllo".encode("utf-8"))

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(True) == 8

    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_containers_recurse(self):
        flat = payload_nbytes([1.0, 2.0])
        assert flat == 16 + 16
        nested = payload_nbytes({"a": [1.0]})
        assert nested > payload_nbytes([1.0])

    def test_object_with_nbytes_attr(self):
        class Sized:
            nbytes = 77

        assert payload_nbytes(Sized()) == 77


class TestMemoryLayout:
    def test_valid(self):
        MemoryLayout(name="t", tag="template", nbytes=64).validate()

    def test_requires_name(self):
        from repro.errors import AnnotationError

        with pytest.raises(AnnotationError):
            MemoryLayout(name="", tag="t", nbytes=1).validate()

    def test_requires_positive_size(self):
        from repro.errors import AnnotationError

        with pytest.raises(AnnotationError):
            MemoryLayout(name="x", tag="t", nbytes=0).validate()
