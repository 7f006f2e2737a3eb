"""Simulated per-process virtual memory with page-level permissions.

This module stands in for the MMU + ``mprotect`` mechanism the paper uses
to enforce temporal read-only permissions on data objects (Fig. 3).  Each
:class:`AddressSpace` belongs to exactly one simulated process; a write
from one process can never reach another process's buffers because the
spaces are disjoint Python objects — the same guarantee real page tables
give.

Data objects (images, tensors, model weights) live in :class:`Buffer`
records: a page-aligned range plus an arbitrary Python payload.  Exploit
code operates on raw addresses (``raw_write``), while well-behaved
framework APIs operate on payloads (``load``/``store``); both paths go
through the same permission check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import SegmentationFault
from repro.sim.clock import VirtualClock

PAGE_SIZE = 4096
_HEAP_BASE = 0x0001_0000
_GUARD_PAGES = 1


class Permission(enum.IntFlag):
    """POSIX-style page protection bits."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4

    @classmethod
    def rw(cls) -> "Permission":
        return cls.READ | cls.WRITE

    @classmethod
    def ro(cls) -> "Permission":
        return cls.READ


def page_of(address: int) -> int:
    """Return the page index containing ``address``."""
    return address // PAGE_SIZE


def pages_spanned(address: int, size: int) -> range:
    """Return the range of page indices covered by ``[address, address+size)``."""
    if size <= 0:
        return range(page_of(address), page_of(address))
    return range(page_of(address), page_of(address + size - 1) + 1)


@dataclass
class SharedSegment:
    """Pages shared between address spaces by a zero-copy transfer.

    Instead of serializing a large payload through a channel, the kernel
    can remap the owning process's pages into the destination — the
    Polytope-style "move mappings, not bytes" crossing.  Every mapping
    of the segment references the same payload; a write through any
    mapping first triggers a copy-on-write downgrade (see
    :meth:`AddressSpace.store`), so the sharing is never observable.
    """

    segment_id: int
    nbytes: int
    payload: Any = None
    #: How many buffers currently map this segment.
    mappings: int = 0

    @property
    def npages(self) -> int:
        return (max(self.nbytes, 1) + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class Buffer:
    """A contiguous allocation holding one data object.

    ``payload`` is the live Python object (numpy array, bytes, model
    weights, ...).  ``nbytes`` is the simulated size used for cost and
    permission accounting; it tracks the payload where possible.

    ``origin_state`` records the framework state during which the buffer
    was defined — FreePart's temporal permission enforcement flips every
    buffer of the *previous* state to read-only on a state transition.

    ``segment`` marks a zero-copy mapping: the buffer's pages belong to
    a :class:`SharedSegment` and the first write must pay the
    copy-on-write downgrade before it lands.
    """

    buffer_id: int
    pid: int
    address: int
    nbytes: int
    tag: str = ""
    payload: Any = None
    origin_state: str = "initialization"
    freed: bool = False
    segment: Optional[SharedSegment] = None

    @property
    def end(self) -> int:
        return self.address + self.nbytes

    def contains(self, address: int) -> bool:
        """Does the address fall inside this buffer?"""
        return self.address <= address < self.end


#: Memoized sizes for payloads declared immutable by their sender
#: (``payload_nbytes(..., frozen=True)``).  Keyed weakly so entries die
#: with their payloads; non-weakref-able payloads are simply recomputed.
_frozen_nbytes = None  # weakref.WeakKeyDictionary, populated lazily


def payload_nbytes(payload: Any, frozen: bool = False) -> int:
    """Best-effort simulated size of an arbitrary payload object.

    ``frozen=True`` declares the payload immutable for the rest of its
    life (RPC messages in flight, reply-cache entries, retransmit
    payloads) and memoizes the computed size, so resending the same
    message never re-walks its argument tree.
    """
    if payload is None:
        return 0
    if frozen:
        cached = _frozen_size_of(payload)
        if cached is not None:
            return cached
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        size = int(nbytes)
    elif isinstance(payload, (bytes, bytearray, memoryview)):
        size = len(payload)
    elif isinstance(payload, str):
        size = len(payload.encode("utf-8"))
    elif isinstance(payload, (int, float, bool)):
        size = 8
    elif isinstance(payload, (list, tuple, set, frozenset)):
        size = 16 + sum(payload_nbytes(item, frozen) for item in payload)
    elif isinstance(payload, dict):
        size = 16 + sum(
            payload_nbytes(k, frozen) + payload_nbytes(v, frozen)
            for k, v in payload.items()
        )
    else:
        size = 64
    if frozen:
        _memoize_frozen_size(payload, size)
    return size


def _frozen_cache() -> dict:
    global _frozen_nbytes
    if _frozen_nbytes is None:
        import weakref

        _frozen_nbytes = weakref.WeakKeyDictionary()
    return _frozen_nbytes


def _frozen_size_of(payload: Any) -> Optional[int]:
    try:
        return _frozen_cache().get(payload)
    except TypeError:  # unhashable payload: not cacheable
        return None


def _memoize_frozen_size(payload: Any, size: int) -> None:
    try:
        _frozen_cache()[payload] = size
    except TypeError:  # unhashable or non-weakref-able payload
        pass


class AddressSpace:
    """The virtual memory of a single simulated process."""

    def __init__(
        self,
        pid: int,
        clock: Optional[VirtualClock] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.pid = pid
        self.clock = clock
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer
        #: Machine-wide IPC/copy accounting (installed by the kernel at
        #: spawn time); copy-on-write downgrades report into it.
        self.accounting: Optional[Any] = None
        self._next_address = _HEAP_BASE
        self._next_buffer_id = 1
        self._buffers: Dict[int, Buffer] = {}
        self._page_permissions: Dict[int, Permission] = {}
        self.mprotect_calls = 0
        #: Copy-on-write downgrades performed on shared-segment buffers.
        self.cow_downgrades = 0
        self.cow_bytes = 0
        #: Write attempts the permission check denied (SIGSEGV delivered).
        self.write_denials = 0
        #: Writes that *completed* against a page lacking WRITE — an
        #: independent audit re-check after every successful store;
        #: the chaos campaign asserts this stays 0 under any fault
        #: schedule ("no frozen-page write ever succeeds").
        self.frozen_write_granted = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(
        self,
        nbytes: int,
        tag: str = "",
        payload: Any = None,
        origin_state: str = "initialization",
        permission: Permission = Permission.READ | Permission.WRITE,
    ) -> Buffer:
        """Allocate a page-aligned buffer and map its pages."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate a negative size ({nbytes})")
        nbytes = max(nbytes, 1)
        address = self._next_address
        npages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        self._next_address += (npages + _GUARD_PAGES) * PAGE_SIZE
        buffer = Buffer(
            buffer_id=self._next_buffer_id,
            pid=self.pid,
            address=address,
            nbytes=nbytes,
            tag=tag,
            payload=payload,
            origin_state=origin_state,
        )
        self._next_buffer_id += 1
        self._buffers[buffer.buffer_id] = buffer
        for page in pages_spanned(address, nbytes):
            self._page_permissions[page] = permission
        return buffer

    def alloc_object(
        self,
        payload: Any,
        tag: str = "",
        origin_state: str = "initialization",
    ) -> Buffer:
        """Allocate a buffer sized to hold ``payload``."""
        return self.alloc(
            payload_nbytes(payload),
            tag=tag,
            payload=payload,
            origin_state=origin_state,
        )

    def map_shared(
        self,
        segment: SharedSegment,
        tag: str = "",
        origin_state: str = "initialization",
    ) -> Buffer:
        """Map a shared segment's pages into this space (zero-copy).

        The buffer references the segment's payload without a byte copy;
        the caller (the kernel's transfer path) charges the page-remap
        cost.  Pages are mapped read-write like a private allocation —
        the first write through :meth:`store`/:meth:`raw_write` pays the
        copy-on-write downgrade *after* the ordinary permission check,
        so temporal freezing still faults before any COW happens.
        """
        buffer = self.alloc(
            segment.nbytes,
            tag=tag,
            payload=segment.payload,
            origin_state=origin_state,
        )
        buffer.segment = segment
        segment.mappings += 1
        return buffer

    def free(self, buffer_id: int) -> None:
        """Unmap a buffer; later accesses through it fault."""
        buffer = self.get_buffer(buffer_id)
        for page in pages_spanned(buffer.address, buffer.nbytes):
            self._page_permissions.pop(page, None)
        if buffer.segment is not None:
            buffer.segment.mappings -= 1
            buffer.segment = None
        buffer.freed = True
        buffer.payload = None
        del self._buffers[buffer_id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_buffer(self, buffer_id: int) -> Buffer:
        """Look up a live buffer by id (faults if unmapped)."""
        try:
            return self._buffers[buffer_id]
        except KeyError:
            raise SegmentationFault(
                self.pid, 0, "access", f"buffer {buffer_id} is not mapped"
            ) from None

    def find_buffer(self, tag: str) -> Optional[Buffer]:
        """Return the most recently allocated live buffer with ``tag``."""
        match = None
        for buffer in self._buffers.values():
            if buffer.tag == tag:
                match = buffer
        return match

    def buffer_at(self, address: int) -> Optional[Buffer]:
        """The buffer containing an address, if any."""
        for buffer in self._buffers.values():
            if buffer.contains(address):
                return buffer
        return None

    def buffers(self) -> Iterator[Buffer]:
        """Iterate over the live buffers."""
        return iter(list(self._buffers.values()))

    def buffers_in_state(self, origin_state: str) -> List[Buffer]:
        """Buffers defined during one framework state."""
        return [b for b in self._buffers.values() if b.origin_state == origin_state]

    @property
    def resident_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    # ------------------------------------------------------------------
    # Permission checks and protection changes
    # ------------------------------------------------------------------

    def permission_of(self, address: int) -> Permission:
        """Page protection bits at an address."""
        return self._page_permissions.get(page_of(address), Permission.NONE)

    def check(self, address: int, nbytes: int, needed: Permission) -> None:
        """Fault unless every page in the range grants ``needed``."""
        for page in pages_spanned(address, max(nbytes, 1)):
            granted = self._page_permissions.get(page, Permission.NONE)
            if needed & ~granted:
                if needed & Permission.WRITE:
                    self.write_denials += 1
                raise SegmentationFault(
                    self.pid,
                    page * PAGE_SIZE,
                    needed.name.lower() if needed.name else str(needed),
                    f"page grants {granted!r}",
                )

    def _audit_write(self, address: int, nbytes: int) -> None:
        """Post-write audit: count any write that got past the check onto
        a non-writable page (must never happen; the chaos invariant)."""
        for page in pages_spanned(address, max(nbytes, 1)):
            granted = self._page_permissions.get(page, Permission.NONE)
            if not granted & Permission.WRITE:
                self.frozen_write_granted += 1
                return

    def mprotect(self, address: int, nbytes: int, permission: Permission) -> None:
        """Change page protections for a mapped range (must be mapped)."""
        spanned = pages_spanned(address, max(nbytes, 1))
        for page in spanned:
            if page not in self._page_permissions:
                raise SegmentationFault(
                    self.pid, page * PAGE_SIZE, "mprotect", "page is not mapped"
                )
        for page in spanned:
            self._page_permissions[page] = permission
        self.mprotect_calls += 1
        if self.clock is not None:
            tracer = self.tracer
            if tracer.enabled:
                with tracer.span("mprotect", category="mprotect",
                                 pid=self.pid, bytes=nbytes,
                                 permission=str(permission)):
                    self.clock.advance(self.clock.cost_model.mprotect_ns)
            else:
                self.clock.advance(self.clock.cost_model.mprotect_ns)

    def protect_buffer(self, buffer_id: int, permission: Permission) -> None:
        """mprotect an entire buffer's page range."""
        buffer = self.get_buffer(buffer_id)
        self.mprotect(buffer.address, buffer.nbytes, permission)

    def is_writable(self, buffer_id: int) -> bool:
        """Is every page of the buffer writable?

        A probe over the page bits, not a write attempt: it never faults
        and never counts as a write denial.  An unmapped buffer is not
        writable.
        """
        buffer = self._buffers.get(buffer_id)
        if buffer is None:
            return False
        permissions = self._page_permissions
        return all(
            permissions.get(page, Permission.NONE) & Permission.WRITE
            for page in pages_spanned(buffer.address, max(buffer.nbytes, 1))
        )

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def load(self, buffer_id: int) -> Any:
        """Read a buffer's payload (checks READ permission)."""
        buffer = self.get_buffer(buffer_id)
        self.check(buffer.address, buffer.nbytes, Permission.READ)
        return buffer.payload

    def store(self, buffer_id: int, payload: Any) -> Buffer:
        """Replace a buffer's payload (checks WRITE permission).

        The simulated size is updated to follow the payload; growth beyond
        the currently mapped pages extends the mapping, modelling a
        ``realloc`` performed by the owning process.
        """
        buffer = self.get_buffer(buffer_id)
        self.check(buffer.address, buffer.nbytes, Permission.WRITE)
        self._cow_downgrade(buffer)
        new_nbytes = max(payload_nbytes(payload), 1)
        old_pages = set(pages_spanned(buffer.address, buffer.nbytes))
        new_pages = set(pages_spanned(buffer.address, new_nbytes))
        for page in new_pages - old_pages:
            self._page_permissions[page] = Permission.READ | Permission.WRITE
        for page in old_pages - new_pages:
            self._page_permissions.pop(page, None)
        buffer.payload = payload
        buffer.nbytes = new_nbytes
        self._audit_write(buffer.address, buffer.nbytes)
        return buffer

    def raw_write(self, address: int, nbytes: int, value: Any = None) -> Buffer:
        """Write ``nbytes`` at a raw address, as exploit payloads do.

        Returns the buffer that was corrupted.  Faults if the address is
        unmapped or read-only — this is exactly the check that makes the
        temporal-permission mitigation of Fig. 3 effective.
        """
        self.check(address, nbytes, Permission.WRITE)
        buffer = self.buffer_at(address)
        if buffer is None:
            raise SegmentationFault(self.pid, address, "write", "no buffer mapped")
        self._cow_downgrade(buffer)
        if value is not None:
            buffer.payload = value
        self._audit_write(address, nbytes)
        return buffer

    def _cow_downgrade(self, buffer: Buffer) -> None:
        """First write to a shared-segment mapping: copy, then detach.

        Runs strictly *after* the permission check — a frozen (read-only)
        shared page still faults before any COW work happens, preserving
        the temporal-freezing semantics the zero-copy path must not
        weaken.  Charges the byte-copy cost the zero-copy transfer
        deferred and downgrades the buffer to a private allocation.
        """
        segment = buffer.segment
        if segment is None:
            return
        buffer.segment = None
        segment.mappings -= 1
        self.cow_downgrades += 1
        self.cow_bytes += buffer.nbytes
        if self.accounting is not None:
            self.accounting.record_cow(buffer.nbytes)
        if self.clock is not None:
            cost = self.clock.cost_model.copy_cost(buffer.nbytes)
            tracer = self.tracer
            if tracer.enabled:
                with tracer.span("cow_copy", category="zero_copy",
                                 pid=self.pid, bytes=buffer.nbytes,
                                 segment=segment.segment_id):
                    self.clock.advance(cost)
            else:
                self.clock.advance(cost)

    def raw_read(self, address: int, nbytes: int) -> Any:
        """Read from a raw address, as info-leak payloads do."""
        self.check(address, nbytes, Permission.READ)
        buffer = self.buffer_at(address)
        if buffer is None:
            raise SegmentationFault(self.pid, address, "read", "no buffer mapped")
        return buffer.payload


@dataclass
class MemoryLayout:
    """A user-provided annotation describing a protected data structure.

    The paper requires users to define "the memory layout of a customized
    data structure (e.g., buffer location and size of `template`)" so the
    runtime can set memory access permissions on it.
    """

    name: str
    tag: str
    nbytes: int
    constructor: str = ""
    accessors: tuple = field(default_factory=tuple)

    def validate(self) -> None:
        """Raise AnnotationError on an incomplete annotation."""
        from repro.errors import AnnotationError

        if not self.name:
            raise AnnotationError("annotation needs a name")
        if not self.tag:
            raise AnnotationError(f"annotation {self.name!r} needs a buffer tag")
        if self.nbytes <= 0:
            raise AnnotationError(
                f"annotation {self.name!r} needs a positive size, got {self.nbytes}"
            )
