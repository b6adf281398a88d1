"""Standard virtual-address-space layout used by the user-level runtime.

The kernel itself imposes no layout (a space is just a sparse 32-bit
address space); these constants are the convention the runtime uses,
mirroring the regions the paper describes:

* a *shared* region that multithreaded processes replicate and merge
  (heap + globals, §4.4);
* the *file system image* kept inside every process (§4.2);
* a *scratch* area the runtime uses when reconciling a child's file
  system image (§4.2);
* a *private* region excluded from Snap/Merge (per-thread data; the
  paper keeps thread stacks here, §4.4).
"""

#: Size of the simulated virtual address space (32-bit, as the prototype).
VA_SIZE = 1 << 32

#: Program text / read-only metadata (the runtime stores the loaded
#: binary's name here so exec() can replace it).
TEXT_BASE = 0x0010_0000

#: Shared region: heap and globals, replicated into threads and merged.
SHARED_BASE = 0x1000_0000
SHARED_END = 0x8000_0000

#: File system image region (one full replica per process).
FS_BASE = 0x8000_0000
FS_END = 0xC000_0000

#: Scratch region for file-system reconciliation.
SCRATCH_BASE = 0xC000_0000
SCRATCH_END = 0xE000_0000

#: Thread/process-private region, never merged.
PRIVATE_BASE = 0xE000_0000
PRIVATE_END = 0xF000_0000

