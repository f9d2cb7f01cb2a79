"""README code blocks, ``Usage::`` docstrings and ``--help`` texts agree
with the real parsers.

Every ``repro …`` or ``python -m repro…`` command in a README code block,
or in the ``Usage::`` block of a CLI module's docstring, is parsed by the
parser its entry point really builds: the test calls the
entry point's ``main`` with ``ArgumentParser.parse_args`` intercepted, so the
routing is the shipped routing and no command runs.  Each ``--flag`` token
must also be an exact option string of that command line's parser tree;
argparse accepts unambiguous prefixes, so parsing alone would let a
renamed ``--flag-x`` still pass for ``--flag``.  The same exactness holds
for every ``--flag`` mentioned in a parser's help, description or epilog.
Every ``from repro… import …`` in a code block must import.  Every test
that the README's "Contracts held by tests" table names must exist.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).parent
READMES = sorted(
    [REPO_ROOT / "README.md", *REPO_ROOT.glob("*/README.md")],
    key=lambda path: path.as_posix(),
)

#: ``python -m`` modules that are command-line entry points (each has ``main``)
CLI_MODULES = (
    "repro.experiments.cli",
    "repro.serve.cli",
    "repro.serve.telemetry.traceview",
)
#: the ``repro`` console script (``[project.scripts]`` in pyproject.toml)
CONSOLE_SCRIPT = "repro.experiments.cli"

_FLAG_RE = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
_SUBSTITUTION_RE = re.compile(r"\$\([^()]*\)")
_IMPORT_RE = re.compile(r"^[ \t]*from[ \t]+repro[\w.]*[ \t]+import[ \t]+(?:\([^)]*\)|.*)$", re.M)
_ASSIGNMENT_RE = re.compile(r"^[A-Za-z_]\w*=")
_OPERATORS = frozenset({"|", "||", "&", "&&", ";", "(", ")", "<", ">"})


def _code_blocks(path: Path):
    """``(first line number, text)`` of every fenced code block in ``path``."""
    block: list[str] | None = None
    start = 0
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.strip().startswith("```"):
            if block is None:
                block, start = [], lineno + 1
            else:
                yield start, "\n".join(block)
                block = None
        elif block is not None:
            block.append(line)


def _usage_blocks(path: Path):
    """``(first line number, text)`` of the indented block after each
    ``Usage…::`` line of ``path`` (a reST literal block in a docstring)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if line.startswith("Usage") and line.rstrip().endswith("::"):
            block: list[str] = []
            for follower in lines[index + 1 :]:
                if follower.strip() and not follower[:1].isspace():
                    break
                block.append(follower)
            yield index + 2, "\n".join(block)


#: source files whose docstring carries a ``Usage::`` block of commands
USAGE_FILES = sorted(
    path
    for path in SRC.rglob("*.py")
    if next(_usage_blocks(path), None)
)


def _shell_lines(start: int, text: str):
    """Logical lines with ``\\`` continuations joined: ``(lineno, line)``."""
    pending, first = "", start
    for offset, line in enumerate(text.splitlines()):
        if not pending:
            first = start + offset
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield first, pending + line
        pending = ""
    if pending:
        yield first, pending


def _commands(line: str):
    """``(module, argv)`` for each repro invocation on one shell line."""
    lexer = shlex.shlex(
        _SUBSTITUTION_RE.sub("SUBST", line), posix=True, punctuation_chars=True
    )
    lexer.whitespace_split = True
    lexer.commenters = "#"
    segment: list[str] = []
    for token in [*lexer, ";"]:
        if token not in _OPERATORS:
            segment.append(token)
            continue
        words, segment = segment, []
        while words and _ASSIGNMENT_RE.match(words[0]):
            words.pop(0)
        if words[:1] == ["repro"]:
            yield CONSOLE_SCRIPT, words[1:]
        elif (
            len(words) >= 3
            and Path(words[0]).name.startswith("python")
            and words[1] == "-m"
            and words[2].split(".")[0] == "repro"
        ):
            yield words[2], words[3:]


def _block_commands(paths, blocks):
    cases = []
    for path in paths:
        for start, text in blocks(path):
            for lineno, line in _shell_lines(start, text):
                for module, argv in _commands(line):
                    where = f"{path.relative_to(REPO_ROOT).as_posix()}:{lineno}"
                    cases.append(pytest.param(module, argv, id=where))
    return cases


def _readme_commands():
    return _block_commands(READMES, _code_blocks)


def _readme_imports():
    cases = []
    for readme in READMES:
        for start, text in _code_blocks(readme):
            for match in _IMPORT_RE.finditer(text):
                lineno = start + text.count("\n", 0, match.start())
                where = f"{readme.relative_to(REPO_ROOT).as_posix()}:{lineno}"
                cases.append(pytest.param(match.group(0).strip(), id=where))
    return cases


class _Routed(Exception):
    """Raised in place of parsing: carries the parser ``main`` picked."""

    def __init__(self, parser: argparse.ArgumentParser, args) -> None:
        super().__init__(parser.prog)
        self.parser = parser
        self.args = args


def _route(module: str, argv: list[str], monkeypatch) -> _Routed:
    """The parser and arguments ``module.main(argv)`` would parse with."""

    def intercept(self, args=None, namespace=None):
        raise _Routed(self, args)

    main = importlib.import_module(module).main
    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", intercept)
        with pytest.raises(_Routed) as routed:
            main(list(argv))
    return routed.value


def _parser_tree(parser: argparse.ArgumentParser):
    """``parser`` and every subparser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in dict.fromkeys(action.choices.values()):
                yield from _parser_tree(child)


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    return {
        option
        for node in _parser_tree(parser)
        for action in node._actions
        for option in action.option_strings
    }


def _help_texts(parser: argparse.ArgumentParser):
    for node in _parser_tree(parser):
        yield node.prog, node.description
        yield node.prog, node.epilog
        for action in node._actions:
            yield node.prog, action.help
            if isinstance(action, argparse._SubParsersAction):
                for choice in action._choices_actions:
                    yield node.prog, choice.help


def test_readme_has_commands_and_imports():
    assert len(_readme_commands()) >= 10
    assert len(_readme_imports()) >= 3


def test_every_cli_module_has_usage_commands():
    documented = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for path in USAGE_FILES
    }
    # traceview has no Usage block; `repro trace` examples live in the
    # Usage block of serve/cli.py and in the README.
    assert documented == set(CLI_MODULES) - {"repro.serve.telemetry.traceview"}
    for path in USAGE_FILES:
        assert _block_commands([path], _usage_blocks), f"{path} has no commands"


def _assert_parses_with_exact_flags(module, argv, monkeypatch, capsys):
    routed = _route(module, argv, monkeypatch)
    try:
        routed.parser.parse_args(routed.args)
    except SystemExit as exc:
        pytest.fail(
            f"`{' '.join(argv)}` does not parse (exit {exc.code}): "
            f"{capsys.readouterr().err.strip()}"
        )
    known = _option_strings(routed.parser)
    unknown = sorted(
        flag
        for token in argv
        for flag in [token.split("=", 1)[0]]
        if flag.startswith("--") and flag not in known
    )
    assert not unknown, f"flags matched only by prefix, or unknown: {unknown}"


@pytest.mark.parametrize(("module", "argv"), _readme_commands())
def test_readme_command_parses_with_exact_flags(module, argv, monkeypatch, capsys):
    _assert_parses_with_exact_flags(module, argv, monkeypatch, capsys)


@pytest.mark.parametrize(("module", "argv"), _block_commands(USAGE_FILES, _usage_blocks))
def test_usage_command_parses_with_exact_flags(module, argv, monkeypatch, capsys):
    _assert_parses_with_exact_flags(module, argv, monkeypatch, capsys)


@pytest.mark.parametrize("statement", _readme_imports())
def test_readme_import_resolves(statement):
    exec(compile(statement, "<README>", "exec"), {})


def test_every_parser_building_module_is_a_known_cli():
    building = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for path in SRC.rglob("*.py")
        if "ArgumentParser(" in path.read_text(encoding="utf-8")
    }
    assert building == set(CLI_MODULES)


@pytest.mark.parametrize("module", CLI_MODULES)
def test_help_texts_name_exact_flags(module, monkeypatch):
    parser = _route(module, [], monkeypatch).parser
    known = _option_strings(parser)
    unknown = sorted(
        (prog, flag)
        for prog, text in _help_texts(parser)
        for flag in _FLAG_RE.findall(text or "")
        if flag not in known
    )
    assert not unknown, f"help texts name flags the parser does not define: {unknown}"


_TEST_ID_RE = re.compile(r"`((?:tests/[\w/]+\.py)?(?:::\w+)*)`")


def _contract_rows():
    """``(rule id, [test ids])`` for each row of the README's contract table;
    an id that starts with ``::`` continues the previous id's file or class."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Contracts held by tests", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not re.fullmatch(r"RL\d{3}", cells[0]):
            continue
        ids: list[str] = []
        for test_id in _TEST_ID_RE.findall(cells[2]):
            if test_id.startswith("::"):
                test_id = ids[-1].rsplit("::", 1)[0] + test_id
            ids.append(test_id)
        rows.append(pytest.param(ids, id=cells[0]))
    return rows


def test_contract_table_covers_every_former_rule():
    assert sorted(row.id for row in _contract_rows()) == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
        "RL008", "RL009", "RL010", "RL011", "RL012",
    ]


@pytest.mark.parametrize("test_ids", _contract_rows())
def test_contract_table_names_existing_tests(test_ids):
    assert test_ids, "the row names no test"
    for test_id in test_ids:
        path, *names = test_id.split("::")
        assert (REPO_ROOT / path).is_file(), f"{test_id}: no such file"
        spec = importlib.util.spec_from_file_location(
            f"_contract_{Path(path).stem}", REPO_ROOT / path
        )
        node = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(node)
        for name in names:
            assert hasattr(node, name), f"{test_id}: no {name!r}"
            node = getattr(node, name)
