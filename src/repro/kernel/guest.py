"""The guest API: everything a program running inside a space may do.

Real Determinator runs native machine code; the hardware confines it to
its private address space and the three system calls.  Here guest code is
a Python callable ``entry(g, *args)`` receiving a :class:`Guest`; the
confinement is that *all* interaction with simulated state goes through
``g``.  Every operation charges deterministic "instructions" to the
space's virtual-time meter, which is also what instruction limits (§3.2)
count.

Memory access:

* ``read``/``write`` and the typed ``load``/``store`` helpers move bytes
  to/from the space's private address space;
* ``array_read``/``array_write``/``mapped`` move numpy arrays (bulk data
  for the compute benchmarks);
* ``view`` returns a true zero-copy view for single-page data.

Compute is modelled with :meth:`Guest.work`, which charges cycles without
touching memory (the benchmarks charge their real algorithmic cost and,
where cheap, also perform the real computation so results are checkable).
"""

import contextlib
import struct

import numpy as np

from repro.common.errors import KernelError
from repro.kernel.traps import Trap
from repro.mem.addrspace import byte_view

#: Base instruction charge of a memory API call.
_MEM_BASE = 6
#: One extra instruction per this many bytes moved (vectorized accesses).
_BYTES_PER_INSN = 16


class Guest:
    """Capability handle guest code uses to act as its space."""

    def __init__(self, kernel, space):
        self.kernel = kernel
        self.space = space
        self.machine = kernel.machine
        self.cost = kernel.machine.cost

    # -- accounting ---------------------------------------------------------

    @property
    def uid(self):
        """The space's stable identifier."""
        return self.space.uid

    def charge(self, n):
        """Charge ``n`` guest instructions (counts against the limit)."""
        self.machine.trace.charge(self.space.uid, n)
        limit = self.space.insn_limit
        if limit is not None:
            limit -= n
            if limit <= 0:
                self.space.insn_limit = None
                self.space.ctx._stop(Trap.INSN_LIMIT)
                return
            self.space.insn_limit = limit

    def kcharge(self, n):
        """Charge kernel-side cycles (exempt from the instruction limit)."""
        self.machine.trace.charge(self.space.uid, n)

    def work(self, n):
        """Model ``n`` instructions of pure computation."""
        self.charge(int(n))

    def alloc_work(self, n):
        """Model ``n`` instructions of allocation-heavy computation.

        On Determinator this is identical to :meth:`work`: memory
        namespaces are thread-private (§2.4), so allocation never
        contends.  The Linux baseline dilates it with core count.
        """
        self.charge(int(n))

    # -- byte memory access ---------------------------------------------------

    def read(self, addr, n):
        """Read ``n`` bytes of private memory at ``addr``."""
        self.charge(_MEM_BASE + (n >> 4))
        self.kernel.touch(self.space, addr, n)
        return self.space.addrspace.read(addr, n, check_perm=True)

    def write(self, addr, data):
        """Write a buffer to private memory, charging by its *byte*
        length and for the COW/zero-fill faults."""
        data = byte_view(data)
        n = data.nbytes
        self.charge(_MEM_BASE + (n >> 4))
        self.kernel.touch(self.space, addr, n)
        counters = self.space.addrspace.counters
        cow0, zero0 = counters.cow_breaks, counters.demand_zero
        self.space.addrspace.write(addr, data, check_perm=True)
        self.kcharge(
            (counters.cow_breaks - cow0) * self.cost.page_cow
            + (counters.demand_zero - zero0) * self.cost.page_zero
        )
        self.kernel.touch(self.space, addr, n, write=True)

    # -- typed scalar access ---------------------------------------------------

    def load(self, addr, size=8, signed=False):
        """Load an integer of ``size`` bytes (little-endian)."""
        return int.from_bytes(self.read(addr, size), "little", signed=signed)

    def store(self, addr, value, size=8):
        """Store an integer of ``size`` bytes (little-endian)."""
        self.write(addr, int(value).to_bytes(size, "little", signed=value < 0))

    def load_f64(self, addr):
        """Load a float64."""
        return struct.unpack("<d", self.read(addr, 8))[0]

    def store_f64(self, addr, value):
        """Store a float64."""
        self.write(addr, struct.pack("<d", float(value)))

    # -- bulk array access --------------------------------------------------------

    def array_read(self, addr, dtype, count):
        """Read ``count`` elements of ``dtype`` into a private numpy array."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self.charge(_MEM_BASE + (nbytes >> 4))
        self.kernel.touch(self.space, addr, nbytes)
        raw = self.space.addrspace.read(addr, nbytes, check_perm=True,
                                        mutable=True)
        return np.frombuffer(raw, dtype=dtype)

    def array_write(self, addr, arr):
        """Write a numpy array into private memory."""
        self.write(addr, np.ascontiguousarray(arr).tobytes())

    @contextlib.contextmanager
    def mapped(self, addr, dtype, count):
        """Context manager: read an array, let the body mutate it, write it
        back on exit.  The simulated-memory analogue of computing in place.
        """
        arr = self.array_read(addr, dtype, count)
        yield arr
        self.array_write(addr, arr)

    def zero_range(self, addr, size):
        """Zero-fill a page-aligned range of this space's own memory
        (used e.g. by exec() to discard the old program image)."""
        self.charge(_MEM_BASE)
        removed = self.space.addrspace.zero_range(addr, size)
        self.kcharge(removed * self.cost.page_map)

    def view(self, addr, count, dtype=np.uint8):
        """Read-only typed view: zero-copy within one page, a copy
        across pages.  Writes go through :meth:`write` /
        :meth:`array_write`, which break COW sharing and record the
        page in the dirty ledger."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self.charge(_MEM_BASE + (nbytes >> 4))
        self.kernel.touch(self.space, addr, nbytes)
        aspace = self.space.addrspace
        zero0 = aspace.counters.demand_zero
        raw = aspace.as_array(addr, nbytes, check_perm=True)
        if aspace.counters.demand_zero != zero0:
            # The view demand-zeroed a frame; it was born on this node,
            # so register its tag charge-free (the write=True branch of
            # touch caches without counting a fetch).
            self.kernel.touch(self.space, addr, nbytes, write=True)
        return raw.view(dtype)

    # -- registers -----------------------------------------------------------------

    def reg(self, name):
        """Read one of this space's own registers."""
        return self.space.regs[name]

    def set_reg(self, name, value):
        """Write one of this space's own registers (e.g. a result in r0)."""
        self.space.set_regs({name: value})

    # -- system calls -----------------------------------------------------------------

    def put(self, childno, **options):
        """Put system call (paper Tables 1-2).  See Kernel.sys_put."""
        return self.kernel.sys_put(self.space, childno, **options)

    def get(self, childno, **options):
        """Get system call (paper Tables 1-2).  See Kernel.sys_get."""
        return self.kernel.sys_get(self.space, childno, **options)

    def ret(self, status=None, **regs):
        """Ret system call: stop and wait for the parent (paper Table 1).

        Returns when the parent next restarts this space with Put/Start.
        """
        if status is not None:
            regs["status"] = status
        if regs:
            self.space.set_regs(regs)
        self.kernel.sys_ret(self.space)

    # -- devices (root space / delegated I/O privilege only, §3.1) ----------------------

    def _require_io(self):
        if not self.space.io_privilege:
            raise KernelError(
                f"space {self.space.uid} has no I/O privilege "
                "(only the root space touches devices, paper §3.1)"
            )

    def console_write(self, data):
        """Write bytes to the console device."""
        self._require_io()
        if isinstance(data, str):
            data = data.encode()
        self.charge(_MEM_BASE + (len(data) >> 4))
        self.machine.dev_console_write(data)

    def console_read(self, n=1 << 16):
        """Read up to ``n`` pending bytes of scripted console input."""
        self._require_io()
        self.charge(_MEM_BASE)
        return self.machine.dev_console_read(n)

    def time_now(self):
        """Read the clock device (scripted values; explicit input, §2.1)."""
        self._require_io()
        self.charge(_MEM_BASE)
        return self.machine.dev_time()

    def debug(self, message):
        """The kernel's raw debug output call (paper §6.1) — available to
        every space, bypasses the deterministic console for debugging."""
        self.machine.dev_debug(self.space, str(message))
