"""Physical page frames with reference counting for copy-on-write."""

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4096, as on the paper's 32-bit x86 prototype

_ZERO_BYTES = bytes(PAGE_SIZE)


class FrameAllocator:
    """Machine-owned source of frame serials.

    Serials identify frame *identities*; combined with a frame's
    ``generation`` they tag frame content versions for the cluster's
    read-only page cache (§3.3) and for snapshot baselines.  Each
    :class:`~repro.kernel.machine.Machine` owns one allocator, so serial
    streams are isolated per machine instead of flowing from a global
    class counter shared across every machine in a process.
    """

    __slots__ = ("_next_serial", "frames_allocated")

    def __init__(self):
        self._next_serial = 0
        #: Total frames ever allocated from this allocator (introspection).
        self.frames_allocated = 0

    def next_serial(self):
        """Allocate a fresh frame serial."""
        self._next_serial += 1
        self.frames_allocated += 1
        return self._next_serial


#: Fallback allocator for frames created outside any machine (unit tests
#: and standalone AddressSpace use).
DEFAULT_ALLOCATOR = FrameAllocator()


class Page:
    """A simulated physical page frame.

    ``refs`` counts how many page-table entries (and snapshots) reference
    the frame.  A frame with ``refs > 1`` is logically read-only: writers
    must copy it first (:meth:`repro.mem.addrspace.AddressSpace` handles
    this).  This mirrors the kernel's copy-on-write optimization that makes
    whole-address-space Copy and Snap cheap (paper §3.2, §4.2).

    ``generation`` counts in-place mutations of the frame's bytes: the
    owning address space bumps it on every write it vectors through
    ``AddressSpace._store``.  The pair ``(serial, generation)`` — see
    :meth:`tag` — therefore identifies frame *content*: a frame's content
    never changes while shared, so caching and skipping by tag is sound.
    """

    __slots__ = ("data", "refs", "serial", "generation")

    def __init__(self, data=None, allocator=None):
        if data is None:
            self.data = bytearray(PAGE_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise ValueError(f"page data must be {PAGE_SIZE} bytes")
            self.data = bytearray(data)
        self.refs = 1
        self.serial = (allocator or DEFAULT_ALLOCATOR).next_serial()
        self.generation = 0

    def tag(self):
        """Content-version tag ``(serial, generation)``."""
        return (self.serial, self.generation)

    def bump(self):
        """Record an in-place mutation; returns the new generation."""
        self.generation += 1
        return self.generation

    def incref(self):
        """Add a reference; returns self for chaining."""
        self.refs += 1
        return self

    def decref(self):
        """Drop a reference.  Frames are garbage-collected by Python."""
        if self.refs <= 0:
            raise AssertionError("page refcount underflow")
        self.refs -= 1

    def fork_copy(self, allocator=None):
        """Return a private writable copy of this frame (COW break)."""
        return Page(self.data, allocator)

    def is_zero(self):
        """True if every byte of the frame is zero."""
        return bytes(self.data) == _ZERO_BYTES

    def __repr__(self):
        return f"<Page refs={self.refs} tag={self.tag()}>"
