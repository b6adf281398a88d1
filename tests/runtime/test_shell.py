"""Shell tests: built-ins, redirection, externals, determinism (§5)."""


from repro.kernel import Machine
from repro.runtime.process import unix_root
from repro.runtime.shell import Shell


def run_shell(script, programs=None, console_input=b""):
    def init(rt):
        return Shell(rt).run_script(script)

    with Machine(programs=programs, console_input=console_input) as m:
        result = m.run(unix_root(init))
    assert result.trap.name in ("EXIT", "RET"), result.trap_info
    return result


def test_echo_to_console():
    result = run_shell("echo hello world")
    assert result.console == b"hello world\n"


def test_redirect_creates_file_and_cat_reads_it():
    result = run_shell("echo data > out.txt\ncat out.txt")
    assert result.console == b"data\n"


def test_append_redirection():
    result = run_shell(
        "echo one > log\necho two >> log\ncat log"
    )
    assert result.console == b"one\ntwo\n"


def test_truncate_redirection():
    result = run_shell("echo aaaa > f\necho b > f\ncat f")
    assert result.console == b"b\n"


def test_input_redirection():
    result = run_shell("echo payload > in.txt\ncat < in.txt")
    assert result.console == b"payload\n"


def test_ls_lists_files_sorted():
    result = run_shell("echo x > bbb\necho y > aaa\nls")
    assert result.console == b"aaa\nbbb\n"


def test_missing_command_is_127():
    result = run_shell("nosuchcmd")
    assert result.r0 == 127
    assert b"command not found" in result.console


def test_missing_file_cat_fails():
    result = run_shell("cat nope.txt")
    assert result.r0 == 1


def test_exit_status_propagates():
    assert run_shell("true").r0 == 0
    assert run_shell("false").r0 == 1
    assert run_shell("exit 3").r0 == 3


def test_exit_stops_script():
    result = run_shell("echo before\nexit 0\necho after")
    assert result.console == b"before\n"


def test_external_program_runs_in_child_process():
    def compile_prog(rt, name):
        rt.fs.write_file(name, b"OBJ")
        return 0

    result = run_shell(
        "compile a.o\ncompile b.o\nls",
        programs={"compile": compile_prog},
    )
    assert result.console == b"a.o\nb.o\n"


def test_external_exit_status():
    def failing(rt):
        return 9

    assert run_shell("failing", programs={"failing": failing}).r0 == 9


def test_ps_is_a_builtin_listing_local_pids():
    def work(rt):
        return 0

    result = run_shell(
        "work\nwork\nps",
        programs={"work": work},
    )
    lines = result.console.decode().splitlines()
    assert lines[0].strip() == "PID CMD"
    assert [line.split() for line in lines[1:]] == [["1", "work"], ["2", "work"]]


def test_scripted_shell_is_deterministic():
    def build(rt, name):
        rt.fs.write_file(name, f"built-{name}".encode())
        rt.write_console(f"building {name}\n".encode())
        return 0

    script = "build x.o\nbuild y.o\ncat x.o y.o > all\ncat all"
    outputs = {
        run_shell(script, programs={"build": build}).console
        for _ in range(3)
    }
    assert len(outputs) == 1


def test_semicolon_separated_commands():
    result = run_shell("echo a; echo b")
    assert result.console == b"a\nb\n"


def test_comments_ignored():
    result = run_shell("# just a comment\necho ok")
    assert result.console == b"ok\n"

