"""A Unix-style shell on the process runtime (paper §5).

"The system provides text-based console I/O and a Unix-style shell
supporting redirection and both scripted and interactive use."

The shell is itself a guest program: it parses commands from its console
input (scripted) or from a string, forks a child process per external
command, waits deterministically, and supports:

* built-ins: ``echo``, ``cat``, ``ls``, ``pwd`` (trivial), ``exit`` and
  — because PIDs are process-local — ``ps`` is a built-in exactly as the
  paper notes ("commands like 'ps' must be built into shells for the
  same reason that 'cd' already is", §4.1);
* output redirection ``>`` and ``>>`` into the shared file system;
* input redirection ``<``;
* running registered guest programs by name with arguments;
* sequential composition with ``;``.

Interactive job control (background jobs via first-to-finish wait) is
deliberately absent: it would require the "nondeterministic I/O
privileges" the prototype does not implement (§4.1).
"""

import shlex

from repro.common.errors import FileSystemError, RuntimeApiError
from repro.runtime.fs import O_APPEND, O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY


class ShellError(RuntimeApiError):
    """Command failed in a way the shell reports rather than raises."""


class Shell:
    """A scripted command interpreter bound to a :class:`ProcessRuntime`."""

    def __init__(self, rt):
        self.rt = rt
        self._builtins = {
            "echo": self._echo,
            "cat": self._cat,
            "ls": self._ls,
            "ps": self._ps,
            "true": lambda argv, stdin: ("", 0),
            "false": lambda argv, stdin: ("", 1),
        }
        #: PIDs forked by this shell, for the built-in ``ps``.
        self._jobs = []
        self._pipe_seq = 0

    # -- command execution ----------------------------------------------------

    def run_script(self, script):
        """Run a whole script (newline/';'-separated); returns the last
        command's exit status."""
        status = 0
        for line in script.replace(";", "\n").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            status = self.run_command(line)
            if line.split()[0] == "exit":
                break
        return status

    def run_command(self, line):
        """Run one command line (possibly a pipeline); returns its exit
        status.

        Pipelines are staged deterministically through temporary files in
        the shared file system: stage k completes and its output
        reconciles into the shell's replica before stage k+1 starts.
        Truly concurrent pipes would need the non-hierarchical
        synchronization the prototype does not support (paper §5).
        """
        stages, stdout_target, append, stdin_source = self._parse(line)
        stages = [argv for argv in stages if argv]
        if not stages:
            return 0
        if stages[0][0] == "exit":
            argv = stages[0]
            return int(argv[1]) if len(argv) > 1 else 0

        if stdin_source is not None and self.rt.fs.lookup(stdin_source) < 0:
            self._emit(f"sh: {stdin_source}: no such file\n", None, False)
            return 1

        prev_name = stdin_source
        temp_names = []
        status = 0
        for idx, argv in enumerate(stages):
            last = idx == len(stages) - 1
            if last:
                out_spec = (stdout_target, append) if stdout_target else None
            else:
                self._pipe_seq += 1
                pipe_name = f".pipe.{self._pipe_seq}"
                temp_names.append(pipe_name)
                out_spec = (pipe_name, False)
            status = self._run_stage(argv, prev_name, out_spec)
            prev_name = out_spec[0] if out_spec else None
        for name in temp_names:
            try:
                self.rt.fs.unlink(name)
            except FileSystemError:
                pass
        return status

    def _run_stage(self, argv, stdin_name, out_spec):
        """Run one pipeline stage with fd-level redirection."""
        if argv[0] in self._builtins:
            stdin_data = b""
            if stdin_name is not None and self.rt.fs.lookup(stdin_name) >= 0:
                stdin_data = self.rt.fs.read_file(stdin_name)
            output, status = self._builtins[argv[0]](argv[1:], stdin_data)
            if out_spec is None:
                self._emit(output, None, False)
            else:
                self._emit(output, out_spec[0], out_spec[1], create_empty=True)
            return status
        return self._run_external(argv, stdin_name, out_spec)

    def _parse(self, line):
        """Tokenize into pipeline stages plus redirections.

        ``<`` applies to the first stage, ``>``/``>>`` to the last."""
        tokens = shlex.split(line)
        stages, argv = [], []
        stdout_target, append, stdin_source = None, False, None
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token == "|":
                stages.append(argv)
                argv = []
                i += 1
            elif token in (">", ">>"):
                if i + 1 >= len(tokens):
                    raise ShellError("missing redirection target")
                stdout_target, append = tokens[i + 1], token == ">>"
                i += 2
            elif token == "<":
                if i + 1 >= len(tokens):
                    raise ShellError("missing redirection source")
                stdin_source = tokens[i + 1]
                i += 2
            else:
                argv.append(token)
                i += 1
        stages.append(argv)
        return stages, stdout_target, append, stdin_source

    def _emit(self, output, target, append, create_empty=False):
        if isinstance(output, str):
            output = output.encode()
        if not output and not (create_empty and target):
            return
        if target is None:
            self.rt.write_console(output)
            return
        fs = self.rt.fs
        flags = O_WRONLY | O_CREAT | (O_APPEND if append else O_TRUNC)
        fd = fs.open(target, flags)
        try:
            if output:
                fs.write(fd, output)
        finally:
            fs.close(fd)

    def _run_external(self, argv, stdin_name, out_spec):
        """Fork a child process to run a registered program, with its
        fd 0/1 redirected (dup2) per the stage's plumbing."""
        program = self.rt.g.machine.programs.get(argv[0])
        if program is None:
            self._emit(f"sh: {argv[0]}: command not found\n", None, False)
            return 127
        pid = self.rt.fork(
            _external_entry, program, tuple(argv[1:]), stdin_name, out_spec
        )
        self._jobs.append((pid, argv[0]))
        status = self.rt.waitpid(pid)
        return status if isinstance(status, int) else 0

    # -- built-ins -----------------------------------------------------------

    def _echo(self, argv, stdin):
        return " ".join(argv) + "\n", 0

    def _cat(self, argv, stdin):
        if not argv:
            return stdin, 0
        chunks = []
        for name in argv:
            try:
                chunks.append(self.rt.fs.read_file(name))
            except FileSystemError:
                return f"cat: {name}: no such file\n", 1
        return b"".join(chunks), 0

    def _ls(self, argv, stdin):
        names = [
            name for name in sorted(self.rt.fs.list_names())
            if not name.startswith("/dev/") and not name.startswith(".")
        ]
        return "".join(name + "\n" for name in names), 0

    def _ps(self, argv, stdin):
        """Process listing — a built-in because the PID namespace is
        local to this shell's process (paper §4.1)."""
        lines = ["  PID CMD\n"]
        for pid, cmd in self._jobs:
            lines.append(f"{pid:>5} {cmd}\n")
        return "".join(lines), 0


def _external_entry(rt, program, argv, stdin_name, out_spec):
    """Child-process wrapper for shell externals: plumb fd 0/1 via dup2
    (real Unix-style descriptor redirection), then run the program."""
    if stdin_name is not None and rt.fs.lookup(stdin_name) >= 0:
        fd = rt.fs.open(stdin_name, O_RDONLY)
        rt.fs.dup2(fd, 0)
        rt.fs.close(fd)
    if out_spec is not None:
        name, append = out_spec
        flags = O_WRONLY | O_CREAT | (O_APPEND if append else O_TRUNC)
        fd = rt.fs.open(name, flags)
        rt.fs.dup2(fd, 1)
        rt.fs.close(fd)
    return program(rt, *argv)

