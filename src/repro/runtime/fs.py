"""The user-level shared file system (paper §4.2 and §4.3).

Each process's address space contains a **complete replica** of the
logically shared file system.  ``open``/``read``/``write`` touch only the
local replica; replicas diverge as processes run and are *reconciled* at
synchronization points (``wait``) using file versioning in the style of
Parker et al. [47]:

* a file changed in only one replica propagates to the other;
* a file changed in both replicas is a **conflict**: one copy is
  discarded and the file's conflict flag is set, so later ``open``
  attempts fail (§4.2) — except *append-only* files (console, logs),
  whose concurrent appends are merged so every replica accumulates all
  writes, possibly in different orders (§4.3);
* special console files hold real data in the image: a process's console
  input file accumulates everything it has received, its console output
  file everything it has written; the root process bridges them to the
  kernel's devices.

On-image layout (offsets from the image base, default ``FS_BASE``)::

    page 0          superblock: magic, next-pid, fork-order log
    page 1          file-descriptor table (inherited across fork)
    page 2          reconciliation base tables: version + size at the
                    last synchronization with the parent
    pages 4..11     inode table: NFILES fixed slots of 128 bytes
    0x10000 +       file data: one fixed 64 KiB slot per inode

The fixed-slot data area mirrors the prototype's limitation that the
file system must fit in an address space (§4.2).
"""

import struct

from repro.common.errors import FileConflictError, FileSystemError
from repro.mem.layout import FS_BASE

# ---------------------------------------------------------------------------
# Layout constants
# ---------------------------------------------------------------------------

MAGIC = 0xDF51_2010
NFILES = 256
NFDS = 32
NAME_MAX = 63
FILE_SLOT = 0x1_0000          # 64 KiB per file
INODE_SIZE = 128

SB_OFF = 0x0000               # superblock page
FD_OFF = 0x1000               # fd table page
BASE_OFF = 0x2000             # reconciliation base tables
INODE_OFF = 0x4000            # inode table (256 * 128 = 32 KiB)
DATA_OFF = 0x1_0000           # file data slots
IMAGE_SIZE = DATA_OFF + NFILES * FILE_SLOT   # 16 MiB + tables

# Superblock field offsets.
SB_MAGIC = 0
SB_NEXT_PID = 4
SB_FORK_COUNT = 8
SB_OUT_PUSHED = 12            # console-out bytes already pushed to device
SB_FORK_LOG = 64              # u16 per forked pid, 0xFFFF = collected
SB_FORK_LOG_MAX = 1024

# Inode field offsets.
I_NAME = 0
I_SIZE = 64
I_VERSION = 68
I_FLAGS = 72

# Inode flags.
F_EXISTS = 1
F_APPEND = 2
F_CONFLICT = 4
F_CONSOLE_IN = 8
F_CONSOLE_OUT = 16
#: Input stream closed: reads at end-of-data return EOF instead of blocking.
F_EOF = 32

# Open flags (Unix-style).
O_RDONLY = 1
O_WRONLY = 2
O_RDWR = 3
O_CREAT = 4
O_APPEND = 8
O_TRUNC = 16
O_EXCL = 32

#: Names of the special console files (paper §4.3).
CONSOLE_IN = "/dev/console-in"
CONSOLE_OUT = "/dev/console-out"


def _name_hash(name):
    """Stable FNV-1a hash of a file name onto an inode slot."""
    h = 0x811C9DC5
    for byte in name.encode():
        h = ((h ^ byte) * 0x0100_0193) & 0xFFFF_FFFF
    return h % NFILES


class FileSystem:
    """A view of one file-system image inside the calling space.

    ``FileSystem(g)`` is the process's own replica; ``FileSystem(g,
    base=SCRATCH_BASE)`` views a child's image copied into the scratch
    region during reconciliation.
    """

    def __init__(self, g, base=FS_BASE):
        self.g = g
        self.base = base

    # -- raw accessors ------------------------------------------------------

    def _u32(self, off):
        return self.g.load(self.base + off, 4)

    def _set_u32(self, off, value):
        self.g.store(self.base + off, value & 0xFFFFFFFF, 4)

    def _inode_off(self, idx):
        return INODE_OFF + idx * INODE_SIZE

    def _data_off(self, idx):
        return DATA_OFF + idx * FILE_SLOT

    def inode_name(self, idx):
        raw = self.g.read(self.base + self._inode_off(idx) + I_NAME, NAME_MAX + 1)
        return raw.split(b"\x00", 1)[0].decode()

    def inode_size(self, idx):
        return self._u32(self._inode_off(idx) + I_SIZE)

    def inode_version(self, idx):
        return self._u32(self._inode_off(idx) + I_VERSION)

    def inode_flags(self, idx):
        return self._u32(self._inode_off(idx) + I_FLAGS)

    def set_inode(self, idx, name=None, size=None, version=None, flags=None):
        off = self._inode_off(idx)
        if name is not None:
            encoded = name.encode()
            if len(encoded) > NAME_MAX:
                raise FileSystemError(f"name too long: {name!r}")
            self.g.write(self.base + off + I_NAME, encoded.ljust(NAME_MAX + 1, b"\x00"))
        if size is not None:
            self._set_u32(off + I_SIZE, size)
        if version is not None:
            self._set_u32(off + I_VERSION, version)
        if flags is not None:
            self._set_u32(off + I_FLAGS, flags)

    def read_data(self, idx, start, length):
        if length <= 0:
            return b""
        return self.g.read(self.base + self._data_off(idx) + start, length)

    def write_data(self, idx, start, data):
        if start + len(data) > FILE_SLOT:
            raise FileSystemError(
                f"file slot full ({start + len(data)} > {FILE_SLOT}); the "
                "prototype's file size is limited (paper §4.2)"
            )
        self.g.write(self.base + self._data_off(idx) + start, data)

    # -- base (reconciliation) tables ------------------------------------------

    def base_version(self, idx):
        return self._u32(BASE_OFF + idx * 8)

    def base_size(self, idx):
        return self._u32(BASE_OFF + idx * 8 + 4)

    def set_base(self, idx, version, size):
        self._set_u32(BASE_OFF + idx * 8, version)
        self._set_u32(BASE_OFF + idx * 8 + 4, size)

    # -- formatting / lookup -----------------------------------------------------

    def format(self):
        """Initialize an empty image with the console special files."""
        self._set_u32(SB_MAGIC, MAGIC)
        self._set_u32(SB_NEXT_PID, 1)
        self._set_u32(SB_FORK_COUNT, 0)
        self._set_u32(SB_OUT_PUSHED, 0)
        cin = self._alloc_inode(CONSOLE_IN)
        self.set_inode(cin, flags=F_EXISTS | F_APPEND | F_CONSOLE_IN, version=1)
        cout = self._alloc_inode(CONSOLE_OUT)
        self.set_inode(cout, flags=F_EXISTS | F_APPEND | F_CONSOLE_OUT, version=1)
        self.set_base(cin, 1, 0)
        self.set_base(cout, 1, 0)

    def lookup(self, name):
        """Inode index for ``name``, or -1.

        Placement is by deterministic name hash with linear probing, so
        lookups probe from the hash slot; a deleted slot does not stop
        the probe (versions keep history), only NFILES misses do.
        """
        start = _name_hash(name)
        for step in range(NFILES):
            idx = (start + step) % NFILES
            if self.inode_flags(idx) & F_EXISTS and self.inode_name(idx) == name:
                return idx
        return -1

    def _alloc_inode(self, name):
        """Allocate the inode for ``name`` at its deterministic hash slot.

        Hash placement (rather than first-free) means independent
        replicas creating *different* new files almost always pick
        different inode slots, so their creations reconcile cleanly;
        replicas creating the *same* name pick the same slot, so the
        write/write conflict is detected (§4.2).  Two different new names
        probing into the same slot in diverged replicas is reported as a
        (false) conflict — a documented limitation of fixed-slot images.
        """
        start = _name_hash(name)
        for step in range(NFILES):
            idx = (start + step) % NFILES
            if not self.inode_flags(idx) & F_EXISTS:
                self.set_inode(idx, name=name, size=0, version=0, flags=F_EXISTS)
                return idx
        raise FileSystemError("out of inodes")

    def list_names(self):
        """Names of all existing files, in inode order (deterministic)."""
        return [
            self.inode_name(idx)
            for idx in range(NFILES)
            if self.inode_flags(idx) & F_EXISTS
        ]

    # -- file descriptors -----------------------------------------------------------

    def _fd_off(self, fd):
        return FD_OFF + fd * 16

    def _fd_fields(self, fd):
        raw = self.g.read(self.base + self._fd_off(fd), 12)
        return struct.unpack("<iII", raw)

    def _set_fd(self, fd, inode, pos, flags):
        self.g.write(self.base + self._fd_off(fd), struct.pack("<iII", inode, pos, flags))

    def init_fd_table(self):
        for fd in range(NFDS):
            self._set_fd(fd, -1, 0, 0)

    # -- Unix-style file API ------------------------------------------------------------

    def open(self, name, flags=O_RDONLY):
        """Open ``name``; returns the lowest free file descriptor.

        Descriptor numbers come from the process-private table, so they
        are deterministic and reveal no shared state (§2.4).
        """
        idx = self.lookup(name)
        if idx < 0:
            if not flags & O_CREAT:
                raise FileSystemError(f"no such file: {name!r}")
            idx = self._alloc_inode(name)
            self._bump_version(idx)
        else:
            if flags & O_EXCL:
                raise FileSystemError(f"file exists: {name!r}")
            if self.inode_flags(idx) & F_CONFLICT:
                raise FileConflictError(name)
        if flags & O_TRUNC and flags & (O_WRONLY & O_RDWR):
            self.set_inode(idx, size=0)
            self._bump_version(idx)
        for fd in range(NFDS):
            if self._fd_fields(fd)[0] == -1:
                pos = self.inode_size(idx) if flags & O_APPEND else 0
                self._set_fd(fd, idx, pos, flags)
                return fd
        raise FileSystemError("out of file descriptors")

    def close(self, fd):
        self._check_fd(fd)
        self._set_fd(fd, -1, 0, 0)

    def _check_fd(self, fd):
        if not 0 <= fd < NFDS or self._fd_fields(fd)[0] == -1:
            raise FileSystemError(f"bad file descriptor {fd}")

    def read(self, fd, n):
        """Read up to ``n`` bytes; returns b'' at end of file."""
        self._check_fd(fd)
        inode, pos, flags = self._fd_fields(fd)
        if not flags & O_RDONLY:
            raise FileSystemError("descriptor not open for reading")
        size = self.inode_size(inode)
        n = max(0, min(n, size - pos))
        data = self.read_data(inode, pos, n)
        self._set_fd(fd, inode, pos + n, flags)
        return data

    def write(self, fd, data):
        """Write ``data``; append-only files always write at end (§4.3)."""
        self._check_fd(fd)
        if isinstance(data, str):
            data = data.encode()
        inode, pos, flags = self._fd_fields(fd)
        if not flags & O_WRONLY:
            raise FileSystemError("descriptor not open for writing")
        if self.inode_flags(inode) & F_APPEND or flags & O_APPEND:
            pos = self.inode_size(inode)
        self.write_data(inode, pos, data)
        new_size = max(self.inode_size(inode), pos + len(data))
        self.set_inode(inode, size=new_size)
        self._bump_version(inode)
        self._set_fd(fd, inode, pos + len(data), flags)
        return len(data)

    def dup2(self, fd, fd2):
        """Duplicate ``fd`` onto ``fd2`` (Unix dup2): descriptor-level
        redirection — pointing fd 1 at a regular file redirects stdout."""
        self._check_fd(fd)
        if not 0 <= fd2 < NFDS:
            raise FileSystemError(f"bad file descriptor {fd2}")
        inode, pos, flags = self._fd_fields(fd)
        self._set_fd(fd2, inode, pos, flags)
        return fd2

    def seek(self, fd, pos):
        self._check_fd(fd)
        inode, _, flags = self._fd_fields(fd)
        self._set_fd(fd, inode, pos, flags)

    def tell(self, fd):
        self._check_fd(fd)
        return self._fd_fields(fd)[1]

    def unlink(self, name):
        idx = self.lookup(name)
        if idx < 0:
            raise FileSystemError(f"no such file: {name!r}")
        self.set_inode(idx, flags=0, size=0)
        self._bump_version(idx)

    def stat(self, name):
        """Dict of size/version/flags for ``name``."""
        idx = self.lookup(name)
        if idx < 0:
            raise FileSystemError(f"no such file: {name!r}")
        return {
            "inode": idx,
            "size": self.inode_size(idx),
            "version": self.inode_version(idx),
            "flags": self.inode_flags(idx),
        }

    def _bump_version(self, idx):
        self.set_inode(idx, version=self.inode_version(idx) + 1)

    # -- whole-file conveniences ----------------------------------------------------------

    def write_file(self, name, data, append=False):
        fd = self.open(name, O_WRONLY | O_CREAT | (O_APPEND if append else 0))
        try:
            self.write(fd, data)
        finally:
            self.close(fd)

    def read_file(self, name):
        fd = self.open(name, O_RDONLY)
        try:
            return self.read(fd, FILE_SLOT)
        finally:
            self.close(fd)


# ---------------------------------------------------------------------------
# Reconciliation (paper §4.2/§4.3)
# ---------------------------------------------------------------------------

def reconcile(parent_fs, child_fs):
    """Bidirectionally reconcile two replicas using file versioning.

    ``child_fs`` is a child's image (typically viewed in the parent's
    scratch region); its base tables record the versions at the last
    synchronization with the parent.  After reconciliation both images
    agree and both base tables are updated.

    Returns a dict mapping file names to one of ``'push'`` (parent took
    the child's copy), ``'pull'`` (child took the parent's), ``'append'``
    (append-only bidirectional merge), or ``'conflict'``.
    """
    outcome = {}
    for idx in range(NFILES):
        p_ver = parent_fs.inode_version(idx)
        c_ver = child_fs.inode_version(idx)
        base_ver = child_fs.base_version(idx)
        if p_ver == base_ver and c_ver == base_ver:
            continue
        name = parent_fs.inode_name(idx) or child_fs.inode_name(idx)
        p_changed = p_ver != base_ver
        c_changed = c_ver != base_ver
        if c_changed and not p_changed:
            _adopt(parent_fs, child_fs, idx)
            outcome[name] = "push"
        elif p_changed and not c_changed:
            _adopt(child_fs, parent_fs, idx)
            outcome[name] = "pull"
        else:
            flags = parent_fs.inode_flags(idx) | child_fs.inode_flags(idx)
            if flags & F_APPEND:
                _merge_appends(parent_fs, child_fs, idx)
                outcome[name] = "append"
            else:
                # Discard the child's copy and mark the conflict (§4.2).
                new_ver = max(p_ver, c_ver) + 1
                p_flags = parent_fs.inode_flags(idx) | F_CONFLICT
                parent_fs.set_inode(idx, version=new_ver, flags=p_flags)
                _adopt(child_fs, parent_fs, idx)
                outcome[name] = "conflict"
        # Only the *child's* base table records the parent<->child sync
        # state; the parent's own base table tracks its sync with the
        # grandparent and must not be touched here.
        child_fs.set_base(idx, parent_fs.inode_version(idx), parent_fs.inode_size(idx))
    return outcome


def _adopt(dst_fs, src_fs, idx):
    """Copy one file (inode + data) from ``src_fs`` to ``dst_fs``."""
    size = src_fs.inode_size(idx)
    dst_fs.set_inode(
        idx,
        name=src_fs.inode_name(idx) or None,
        size=size,
        version=src_fs.inode_version(idx),
        flags=src_fs.inode_flags(idx),
    )
    if size:
        dst_fs.write_data(idx, 0, src_fs.read_data(idx, 0, size))


def _merge_appends(parent_fs, child_fs, idx):
    """Append-only merge: each side appends the other's new tail (§4.3).

    Every replica accumulates all writes; different replicas may observe
    them in different orders, exactly as the paper specifies.
    """
    base_size = child_fs.base_size(idx)
    p_size = parent_fs.inode_size(idx)
    c_size = child_fs.inode_size(idx)
    p_tail = parent_fs.read_data(idx, base_size, p_size - base_size)
    c_tail = child_fs.read_data(idx, base_size, c_size - base_size)
    new_ver = max(parent_fs.inode_version(idx), child_fs.inode_version(idx)) + 1
    if c_tail:
        parent_fs.write_data(idx, p_size, c_tail)
    parent_fs.set_inode(idx, size=p_size + len(c_tail), version=new_ver)
    if p_tail:
        child_fs.write_data(idx, c_size, p_tail)
    child_fs.set_inode(idx, size=c_size + len(p_tail), version=new_ver)
