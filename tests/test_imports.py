"""Static checks over the package source.

No stale imports: every name a module imports is used in that module
(`__init__.py` is skipped, since its imports are the package's
re-exports). One publish path: only manifest.staged creates directories
or moves files into place. One home for the int16 mapping, one
evaluation front end, one DET curve, and each CLI option shared by two
subcommands defined once. No public function or class that only tests
use, and the package exports exactly what `__init__.py` imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padaug"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_public_name_is_used_in_src():
    """Each public module-level function and class is loaded by name in a
    src module other than __init__.py, so none exists for tests alone."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    loaded = {node.id for name, tree in trees.items() if name != "__init__.py" for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    public = [node.name for tree in trees.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert public
    assert sorted(set(public) - loaded) == []


def test_all_is_what_init_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"])
    assert sorted(exported) == sorted(imported_names(tree))


def publish_calls(tree):
    """Calls that create a directory or move a file into place."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            is_os = isinstance(f.value, ast.Name) and f.value.id == "os"
            if f.attr == "mkdir" or (is_os and f.attr in ("replace", "rename", "makedirs")):
                yield node


def test_only_staged_publishes():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    staged = next(n for n in trees["manifest.py"].body if isinstance(n, ast.FunctionDef) and n.name == "staged")
    inside = list(publish_calls(staged))
    assert {n.func.attr for n in inside} == {"mkdir", "replace"}
    outside = [f"{name}:{n.lineno}" for name, tree in trees.items() for n in publish_calls(tree) if n not in inside]
    assert outside == []
    assert [name for name, tree in trees.items() if "tempfile" in set(imported_names(tree))] == []


def test_int16_scale_lives_in_audio_io():
    """INT16_SCALE and a literal 32768 appear only in audio_io, whose
    from_pcm, to_pcm and quantize are the int16 <-> float64 mapping."""
    hits = sorted({p.name for p in SRC.glob("*.py") for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                   if (isinstance(n, ast.Name) and n.id == "INT16_SCALE")
                   or (isinstance(n, ast.alias) and n.name == "INT16_SCALE")
                   or (isinstance(n, ast.Constant) and type(n.value) in (int, float) and n.value == 32768)})
    assert hits == ["audio_io.py"]


def test_one_evaluation_front_end():
    """Whole-utterance features for evaluation are made in one place."""
    hits = [(p.name, n) for p in sorted(SRC.glob("*.py"))
            for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1) if "cmn(fbank(" in line]
    model = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    embed = next(n for n in model.body if isinstance(n, ast.FunctionDef) and n.name == "embed_utterance")
    assert hits
    assert [(name, embed.lineno <= n <= embed.end_lineno) for name, n in hits] == [("model.py", True)] * len(hits)



def test_one_det_curve():
    """Only det_metrics sorts scores into thresholds and rates; testset
    embeds and leaves scoring to its caller."""
    metrics = ast.parse((SRC / "metrics.py").read_text(encoding="utf-8"))
    det = next(n for n in metrics.body if isinstance(n, ast.FunctionDef) and n.name == "det_metrics")
    curve = [n.lineno for n in ast.walk(metrics) if isinstance(n, ast.Attribute) and n.attr in ("searchsorted", "unique")]
    assert curve and all(det.lineno <= n <= det.end_lineno for n in curve)
    testset = ast.parse((SRC / "testset.py").read_text(encoding="utf-8"))
    assert [n.module for n in ast.walk(testset) if isinstance(n, ast.ImportFrom) and n.module == "metrics"] == []


SHARED_OPTIONS = ("--t-min", "--t-max", "--snr-min", "--snr-max", "--placement", "--snr-db", "--zero-pad")


def test_each_shared_option_is_defined_once():
    calls = [n for n in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "add_argument"]
    flags = [n.args[0].value for n in calls if n.args and isinstance(n.args[0], ast.Constant)]
    assert {flag: flags.count(flag) for flag in SHARED_OPTIONS} == dict.fromkeys(SHARED_OPTIONS, 1)
    # every float option parses through the one finite-float type
    bare = [n.lineno for n in calls for kw in n.keywords
            if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "float"]
    assert bare == []
