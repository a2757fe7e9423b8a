"""Import-time regressions: ``import repro`` must stay light.

The CLI parses ``--help`` and bad flags without touching the engine,
and ``import repro`` (the first line of every user script) must not
drag in heavy submodules.  Run in a subprocess so this test cannot be
poisoned by whatever the rest of the suite already imported, and
measure only what the statement adds over a bare interpreter: site
startup hooks (``.pth`` files) may import stdlib modules such as
``bz2``/``lzma`` before any user code runs.
"""

import functools
import json
import subprocess
import sys

HEAVY_MODULES = [
    "multiprocessing",
    "lzma",
    "bz2",
    "repro.core",
    "repro.core.compressor",
    "repro.core.streaming",
    "repro.archive",
    "repro.query",
    "repro.flows",
    "repro.synth",
]


def _modules_after(statement: str) -> set[str]:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout))


@functools.lru_cache(maxsize=1)
def _bare_interpreter_modules() -> frozenset[str]:
    return frozenset(_modules_after("pass"))


def _loaded_after(statement: str) -> set[str]:
    """Modules ``statement`` loads beyond what a bare interpreter has."""
    return _modules_after(statement) - _bare_interpreter_modules()


class TestImportRepro:
    def test_pulls_no_heavy_submodule(self):
        loaded = _loaded_after("import repro")
        offenders = [name for name in HEAVY_MODULES if name in loaded]
        assert not offenders, f"import repro eagerly loaded: {offenders}"

    def test_version_without_engine(self):
        loaded = _loaded_after("import repro; repro.__version__")
        assert "repro.core" not in loaded

    def test_api_package_is_lazy_too(self):
        loaded = _loaded_after("import repro.api")
        offenders = [name for name in HEAVY_MODULES if name in loaded]
        assert not offenders, f"import repro.api eagerly loaded: {offenders}"

    def test_open_attribute_loads_engine_on_demand(self):
        loaded = _loaded_after("import repro; repro.open")
        assert "repro.api.store" in loaded  # resolved lazily, on access

    def test_submodule_attribute_access_still_works(self):
        # Pre-1.1 the eager imports bound submodules on the packages;
        # the lazy layout must keep that working.
        code = (
            "import repro, repro.core\n"
            "assert repro.core.codec.TIME_SEQ_RECORD_BYTES == 10\n"
            "assert repro.net.packet.PacketRecord is not None\n"
            "assert repro.api.errors.ReproError is not None\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr

    def test_public_names_still_importable(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import Trace, PacketRecord, Options, open;"
                "assert callable(open)",
            ],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr


class TestCliStartup:
    def test_cli_import_skips_the_engine(self):
        loaded = _loaded_after("import repro.cli")
        for name in ("repro.core.compressor", "multiprocessing", "repro.flows"):
            assert name not in loaded, f"repro.cli eagerly loaded {name}"

    def test_help_runs_without_engine_modules(self):
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['--help']) == 0\n"
            "assert 'repro.core.compressor' not in sys.modules\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
