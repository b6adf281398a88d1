"""File-system unit tests: format, Unix API, versioning, reconciliation."""


from repro.common.errors import FileConflictError, FileSystemError
from repro.kernel import Machine
from repro.mem.layout import SCRATCH_BASE
from repro.runtime.fs import (
    CONSOLE_IN,
    CONSOLE_OUT,
    F_APPEND,
    F_CONFLICT,
    F_EXISTS,
    FileSystem,
    NFILES,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_WRONLY,
    reconcile,
)


def in_guest(fn):
    """Run ``fn(g)`` inside a fresh machine's root space; return its result."""
    with Machine() as m:
        result = m.run(fn)
    if result.trap.name not in ("EXIT", "RET"):
        raise AssertionError(f"guest faulted: {result.trap} {result.trap_info}")
    return result.r0


def test_format_creates_console_files():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        return fs.list_names()

    names = in_guest(body)
    assert CONSOLE_IN in names and CONSOLE_OUT in names


def test_write_read_roundtrip():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fs.write_file("hello.txt", b"contents here")
        return fs.read_file("hello.txt")

    assert in_guest(body) == b"contents here"


def test_open_missing_without_creat_fails():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        try:
            fs.open("nope", O_RDONLY)
        except FileSystemError:
            return "err"

    assert in_guest(body) == "err"


def test_open_excl_on_existing_fails():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fs.write_file("f", b"x")
        try:
            fs.open("f", O_WRONLY | O_CREAT | O_EXCL)
        except FileSystemError:
            return "err"

    assert in_guest(body) == "err"


def test_fd_numbers_deterministic_lowest_free():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        a = fs.open("a", O_WRONLY | O_CREAT)
        b = fs.open("b", O_WRONLY | O_CREAT)
        fs.close(a)
        c = fs.open("c", O_WRONLY | O_CREAT)
        return (a, b, c)

    a, b, c = in_guest(body)
    assert c == a  # lowest free fd reused


def test_version_bumps_on_write():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fs.write_file("f", b"1")
        v1 = fs.stat("f")["version"]
        fs.write_file("f", b"2")
        return (v1, fs.stat("f")["version"])

    v1, v2 = in_guest(body)
    assert v2 > v1


def test_seek_tell_and_partial_reads():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fs.write_file("f", b"abcdefgh")
        fd = fs.open("f", O_RDONLY)
        first = fs.read(fd, 3)
        pos = fs.tell(fd)
        fs.seek(fd, 6)
        rest = fs.read(fd, 10)
        return (first, pos, rest)

    assert in_guest(body) == (b"abc", 3, b"gh")


def test_append_mode_appends():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fs.write_file("log", b"one;")
        fd = fs.open("log", O_WRONLY | O_APPEND)
        fs.write(fd, b"two;")
        fs.close(fd)
        return fs.read_file("log")

    assert in_guest(body) == b"one;two;"


def test_unlink_removes():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fs.write_file("f", b"x")
        fs.unlink("f")
        return fs.lookup("f")

    assert in_guest(body) == -1


def test_read_write_flag_enforcement():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fs.write_file("f", b"data")
        fd = fs.open("f", O_RDONLY)
        try:
            fs.write(fd, b"x")
        except FileSystemError:
            return "err"

    assert in_guest(body) == "err"


def test_file_slot_overflow_rejected():
    def body(g):
        fs = FileSystem(g)
        fs.format()
        fs.init_fd_table()
        fd = fs.open("big", O_WRONLY | O_CREAT)
        try:
            fs.write(fd, b"x" * (1 << 17))
        except FileSystemError:
            return "err"

    assert in_guest(body) == "err"


# ---------------------------------------------------------------------------
# Reconciliation (two images inside one guest, as the runtime does it)
# ---------------------------------------------------------------------------

def _two_images(g):
    """Parent image at FS_BASE, 'child' image at scratch, bases synced."""
    parent = FileSystem(g)
    parent.format()
    parent.init_fd_table()
    parent.write_file("shared.txt", b"original")
    child = FileSystem(g, base=SCRATCH_BASE)
    # Simulate fork: copy the image and set the child's base tables.
    for idx in range(NFILES):
        flags = parent.inode_flags(idx)
        if not flags & F_EXISTS:
            continue
        size = parent.inode_size(idx)
        child.set_inode(
            idx,
            name=parent.inode_name(idx),
            size=size,
            version=parent.inode_version(idx),
            flags=flags,
        )
        if size:
            child.write_data(idx, 0, parent.read_data(idx, 0, size))
        child.set_base(idx, parent.inode_version(idx), size)
    child.init_fd_table()
    return parent, child


def test_reconcile_child_change_propagates_up():
    def body(g):
        parent, child = _two_images(g)
        child.write_file("shared.txt", b"child-v2")
        out = reconcile(parent, child)
        return (out.get("shared.txt"), parent.read_file("shared.txt"))

    assert in_guest(body) == ("push", b"child-v2")


def test_reconcile_parent_change_propagates_down():
    def body(g):
        parent, child = _two_images(g)
        parent.write_file("shared.txt", b"parent-v2")
        out = reconcile(parent, child)
        return (out.get("shared.txt"), child.read_file("shared.txt"))

    assert in_guest(body) == ("pull", b"parent-v2")


def test_reconcile_new_child_file_appears_in_parent():
    def body(g):
        parent, child = _two_images(g)
        child.write_file("out.o", b"object code")
        reconcile(parent, child)
        return parent.read_file("out.o")

    assert in_guest(body) == b"object code"


def test_reconcile_conflict_discards_child_and_flags():
    def body(g):
        parent, child = _two_images(g)
        parent.write_file("shared.txt", b"parent-write")
        child.write_file("shared.txt", b"child-write!")
        out = reconcile(parent, child)
        flags = parent.stat("shared.txt")["flags"]
        try:
            parent.open("shared.txt", O_RDONLY)
            opened = "ok"
        except FileConflictError:
            opened = "conflict-error"
        return (out.get("shared.txt"), bool(flags & F_CONFLICT), opened,
                parent.read_data(parent.lookup("shared.txt"), 0, 12))

    outcome, flagged, opened, data = in_guest(body)
    assert outcome == "conflict"
    assert flagged
    assert opened == "conflict-error"
    assert data == b"parent-write"


def test_reconcile_append_only_merges_both_tails():
    def body(g):
        parent, child = _two_images(g)
        parent.write_file("log", b"")             # create
        # Re-sync bases after creating the log on both sides.
        reconcile(parent, child)
        pfd = parent.open("log", O_WRONLY | O_APPEND)
        cfd = child.open("log", O_WRONLY | O_APPEND)
        # Mark append-only via the inode flag (console files have it).
        idx = parent.lookup("log")
        parent.set_inode(idx, flags=parent.inode_flags(idx) | F_APPEND)
        child.set_inode(idx, flags=child.inode_flags(idx) | F_APPEND)
        parent.write(pfd, b"P1;")
        child.write(cfd, b"C1;")
        out = reconcile(parent, child)
        return (
            out.get("log"),
            parent.read_file("log"),
            child.read_file("log"),
        )

    outcome, p_data, c_data = in_guest(body)
    assert outcome == "append"
    # Both replicas accumulate all writes, possibly in different orders.
    assert sorted([p_data, c_data]) == sorted([b"P1;C1;", b"C1;P1;"])
    assert set(p_data.replace(b";", b" ").split()) == {b"P1", b"C1"}


def test_reconcile_twice_is_stable():
    def body(g):
        parent, child = _two_images(g)
        child.write_file("shared.txt", b"new")
        reconcile(parent, child)
        second = reconcile(parent, child)
        return second

    assert in_guest(body) == {}


def test_reconcile_deletion_propagates():
    def body(g):
        parent, child = _two_images(g)
        child.unlink("shared.txt")
        reconcile(parent, child)
        return parent.lookup("shared.txt")

    assert in_guest(body) == -1
