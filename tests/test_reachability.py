"""``tools/reachability.py``: the audit over a synthetic package, one input a case."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if "reachability" not in sys.modules:
    _SPEC = importlib.util.spec_from_file_location(
        "reachability", REPO_ROOT / "tools" / "reachability.py"
    )
    _MODULE = importlib.util.module_from_spec(_SPEC)
    sys.modules["reachability"] = _MODULE  # its dataclasses look their module up
    _SPEC.loader.exec_module(_MODULE)
reachability = sys.modules["reachability"]

#: A package whose every public symbol a root reaches and whose every knob a
#: root passes: the audit reports nothing for it.
BASE = {
    "src/repro/__init__.py": """
        from .api import build

        __all__ = ["build"]
    """,
    "src/repro/__main__.py": """
        from .cli import main

        main()
    """,
    "src/repro/cli.py": """
        from . import util
        from .api import build


        def main():
            return build(size=util.DEFAULT_SIZE)
    """,
    "src/repro/api.py": """
        def build(size=1):
            return [size]
    """,
    "src/repro/util.py": """
        DEFAULT_SIZE = 3
    """,
}


def _repo(tmp_path: Path, files: dict[str, str]) -> Path:
    for relative, text in {**BASE, **files}.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip())
    return tmp_path


def _audit(tmp_path: Path, files: dict[str, str], allowlist=None):
    return reachability.audit(_repo(tmp_path, files), allowlist=allowlist or {})


def _keys(report) -> list[str]:
    return [finding.key for finding in report.findings]


def test_the_base_package_is_clean(tmp_path):
    report = _audit(tmp_path, {})
    assert (report.findings, report.stale) == ([], [])


def test_a_symbol_only_tests_reach_is_reported(tmp_path):
    report = _audit(tmp_path, {
        "src/repro/util.py": """
            DEFAULT_SIZE = 3


            def helper():
                return 1
        """,
        "tests/test_util.py": """
            from repro.util import helper


            def test_helper():
                assert helper() == 1
        """,
    })
    (finding,) = report.findings
    assert (finding.key, finding.kind, finding.line) == ("repro.util:helper", "unreached", 4)
    assert finding.message == "no root reaches it; named by tests/test_util.py"


def test_a_symbol_nothing_names_is_reported(tmp_path):
    report = _audit(tmp_path, {"src/repro/util.py": "DEFAULT_SIZE = 3\nORPHAN = 4\n"})
    assert [(f.key, f.message) for f in report.findings] == [
        ("repro.util:ORPHAN", "no root reaches it; nothing names it"),
    ]


def test_private_symbols_are_not_audited(tmp_path):
    report = _audit(tmp_path, {"src/repro/util.py": "DEFAULT_SIZE = 3\n_ORPHAN = 4\n"})
    assert report.findings == []


@pytest.mark.parametrize("files", [
    # through a reached function's body, by a package re-export
    {"src/repro/api.py": """
        from .extra import helper


        def build(size=1):
            return [helper(size)]
     """, "src/repro/extra.py": "def helper(size):\n    return size\n"},
    # through an attribute of an imported module
    {"src/repro/api.py": """
        from . import extra


        def build(size=1):
            return [extra.helper(size)]
     """, "src/repro/extra.py": "def helper(size):\n    return size\n"},
    # by a call that runs when the module is imported
    {"src/repro/extra.py": """
        def helper():
            return {}


        REGISTRY = helper()
     """},
    # by the E15 benchmark, which the audit counts as a root
    {"src/repro/extra.py": "def helper():\n    return 1\n",
     "benchmarks/e15/run.py": "from repro.extra import helper\n\nhelper()\n"},
    # by a root named in ROOT_SYMBOLS (the HTTP server)
    {"src/repro/server/__init__.py": "",
     "src/repro/server/http.py": """
        from ..extra import helper


        class SparqlHttpServer:
            def __init__(self):
                helper()
     """, "src/repro/extra.py": "def helper():\n    return 1\n"},
])
def test_a_symbol_a_root_reaches_is_not_reported(tmp_path, files):
    report = _audit(tmp_path, files)
    assert report.findings == []


def test_a_keyword_only_tests_pass_is_reported(tmp_path):
    report = _audit(tmp_path, {
        "src/repro/api.py": """
            def build(size=1, verbose=False):
                return [size, verbose]
        """,
        "tests/test_api.py": """
            from repro.api import build


            def test_verbose():
                assert build(verbose=True)[1] is True
        """,
    })
    (finding,) = report.findings
    assert (finding.key, finding.kind) == ("repro.api:build(verbose)", "knob")
    assert finding.message == (
        "no root passes a value other than its default; tests or benchmarks do"
    )


def test_a_keyword_nothing_passes_is_reported_as_such(tmp_path):
    report = _audit(tmp_path, {"src/repro/api.py": """
        def build(size=1, verbose=False):
            return [size, verbose]
    """})
    (finding,) = report.findings
    assert finding.key == "repro.api:build(verbose)"
    assert finding.message.endswith("nothing else does either")


def test_passing_the_default_itself_does_not_count(tmp_path):
    report = _audit(tmp_path, {"src/repro/util.py": "", "src/repro/cli.py": """
        from .api import build


        def main():
            return build(size=1)
    """})
    assert _keys(report) == ["repro.api:build(size)"]


@pytest.mark.parametrize(("call", "util"), [
    ("build(2)", ""),
    ("build(size=util.DEFAULT_SIZE)", "DEFAULT_SIZE = 3\n"),
    ("build(*util.ARGS)", "ARGS = (3,)\n"),
    ("build(**util.OPTIONS)", "OPTIONS = {'size': 3}\n"),
])
def test_a_root_may_pass_a_keyword_any_way(tmp_path, call, util):
    report = _audit(tmp_path, {
        "src/repro/cli.py": f"""
            from . import util
            from .api import build


            def main():
                return {call}, util
        """,
        "src/repro/util.py": util,
    })
    assert report.findings == []


def test_a_constructor_keyword_forwarded_by_super_counts(tmp_path):
    report = _audit(tmp_path, {"src/repro/api.py": """
        class Base:
            def __init__(self, size=1):
                self.size = size


        class Child(Base):
            def __init__(self, size):
                super().__init__(size)


        def build(size=1):
            return Child(size).size
    """})
    assert report.findings == []


def test_an_allowlisted_symbol_is_silent_and_keeps_what_it_reaches(tmp_path):
    files = {"src/repro/extra.py": """
        def kept():
            return _used() + used()


        def _used():
            return 1


        def used():
            return 2
    """}
    assert sorted(_keys(_audit(tmp_path, files))) == ["repro.extra:kept", "repro.extra:used"]
    report = _audit(tmp_path, files, {"tests use it": ("repro.extra:kept",)})
    assert (report.findings, report.stale) == ([], [])
    assert [finding.key for finding in report.allowlisted] == ["repro.extra:kept"]


def test_a_stale_allowlist_entry_is_reported(tmp_path):
    report = _audit(tmp_path, {}, {"gone": ("repro.api:build", "repro.api:build(size)")})
    assert report.findings == []
    assert report.stale == ["repro.api:build", "repro.api:build(size)"]


# --------------------------------------------------------------------------- #
# Members and fields
# --------------------------------------------------------------------------- #

BOX = """
    class Box:
        def __init__(self, size):
            self.size = size

        def total(self):
            return self.size
"""


def _members(tmp_path, api: str, tests: str = "", allowlist=None):
    files = {"src/repro/api.py": BOX + api}
    if tests:
        files["tests/test_api.py"] = tests
    return _audit(tmp_path, files, allowlist)


def test_a_method_only_tests_call_is_reported(tmp_path):
    report = _members(tmp_path, """
        def only_for_tests(self):
            return self.size + 1


    def build(size=1):
        return [Box(size).total()]
    """, tests="""
        from repro.api import Box


        def test_it():
            assert Box(1).only_for_tests() == 2
    """)
    (finding,) = report.findings
    assert (finding.key, finding.kind, finding.line) == (
        "repro.api:Box.only_for_tests", "unreached", 8)
    assert finding.message == "no root reaches it; named by tests/test_api.py"


def test_a_property_only_tests_read_is_reported(tmp_path):
    report = _members(tmp_path, """
        @property
        def doubled(self):
            return self.size * 2


    def build(size=1):
        return [Box(size).total()]
    """, tests="from repro.api import Box\n\nassert Box(1).doubled == 2\n")
    assert [(f.key, f.kind) for f in report.findings] == [("repro.api:Box.doubled", "unreached")]


def test_a_dataclass_field_nothing_reads_is_reported(tmp_path):
    report = _audit(tmp_path, {"src/repro/api.py": """
        from dataclasses import dataclass


        @dataclass
        class Record:
            size: int
            note: str


        def build(size=1):
            return [Record(size, "x").size]
    """})
    (finding,) = report.findings
    assert (finding.key, finding.kind, finding.line) == ("repro.api:Record.note", "unread", 7)


def test_an_attribute_only_ever_written_is_reported(tmp_path):
    report = _audit(tmp_path, {"src/repro/api.py": """
        class Box:
            def __init__(self, size):
                self.size = size
                self._calls = 0

            def total(self):
                self._calls += 1
                return self.size


        def build(size=1):
            return [Box(size).total()]
    """})
    assert [(f.key, f.kind, f.line) for f in report.findings] == [
        ("repro.api:Box._calls", "unread", 4)]


@pytest.mark.parametrize("api", [
    # through self, from a method a root calls
    """
        def twice(self):
            return self.total() * 2


    def build(size=1):
        box = Box(size)
        return [box.twice()]
    """,
    # through a receiver whose class an annotation gives
    """
        def twice(self):
            return self.size * 2


    def measure(box: Box | None):
        return box.twice()


    def build(size=1):
        return [measure(Box(size)), Box(size).total()]
    """,
    # through an attribute a constructor assignment types
    """
        def twice(self):
            return self.size * 2


    class Holder:
        def __init__(self, size):
            self.box = Box(size)


    def build(size=1):
        holder = Holder(size)
        return [holder.box.twice(), holder.box.total()]
    """,
    # an override of a reached base-class method
    """
    class Bigger(Box):
        def total(self):
            return self.size + 1


    def measure(box: Box):
        return box.total()


    def build(size=1):
        return [measure(Bigger(size))]
    """,
    # what a dunder uses (a dunder is reached with its class)
    """
        def __len__(self):
            return self.twice()

        def twice(self):
            return self.size * 2


    def build(size=1):
        return [len(Box(size)), Box(size).total()]
    """,
])
def test_a_member_a_root_uses_is_not_reported(tmp_path, api):
    assert _members(tmp_path, api).findings == []


@pytest.mark.parametrize("use", [
    # an annotated parameter
    """
    def measure(box: Box, other: Other):
        return box.twice()


    def build(size=1):
        return [measure(Box(size), Other())]
    """,
    # self, inside the class
    """
    def build(size=1):
        return [Box(size).twice_total(), Other()]
    """,
    # a local and an attribute a constructor assignment types
    """
    class Holder:
        def __init__(self, size):
            self.box = Box(size)


    def build(size=1):
        box = Box(size)
        holder = Holder(size)
        return [box.twice(), holder.box.twice(), Other()]
    """,
])
def test_a_receiver_of_known_class_reaches_that_class_only(tmp_path, use):
    report = _members(tmp_path, """
        def twice(self):
            return self.total() * 2

        def twice_total(self):
            return self.twice()


    class Other:
        def twice(self):
            return 0

        def total(self):
            return 0
    """ + use)
    assert [f.key for f in report.findings if f.key.startswith("repro.api:Other.")] == [
        "repro.api:Other.twice", "repro.api:Other.total"]


def test_an_object_of_unknown_class_reaches_every_member_of_that_name(tmp_path):
    report = _members(tmp_path, """
        def twice(self):
            return self.size * 2


    def build(size=1, box=None):
        return [box.twice(), Box(size).total()]
    """)
    assert [f.key for f in report.findings] == ["repro.api:build(box)"]


def test_the_knob_of_a_member_no_root_uses_is_a_stale_entry(tmp_path):
    report = _members(tmp_path, """
        def grow(self, step=1):
            return self.size + step


    def build(size=1):
        return [Box(size).total()]
    """, allowlist={"kept": ("repro.api:Box.grow(step)",)})
    assert [f.key for f in report.findings] == ["repro.api:Box.grow"]
    assert report.stale == ["repro.api:Box.grow(step)"]


def test_an_allowlisted_member_keeps_its_knobs_audited(tmp_path):
    report = _members(tmp_path, """
        def grow(self, step=1):
            return self.size + step


    def build(size=1):
        return [Box(size).total()]
    """, allowlist={"kept": ("repro.api:Box.grow", "repro.api:Box.grow(step)")})
    assert (report.findings, report.stale) == ([], [])
    assert [f.key for f in report.allowlisted] == ["repro.api:Box.grow", "repro.api:Box.grow(step)"]


def test_the_repository_audit_is_clean_and_every_entry_has_a_reason():
    report = reachability.audit()
    assert [finding.render(REPO_ROOT) for finding in report.findings] == []
    assert report.stale == []
    assert all(reason.strip() for reason in reachability.ALLOWLIST)
    keys = [key for keys in reachability.ALLOWLIST.values() for key in keys]
    assert len(keys) == len(set(keys))
