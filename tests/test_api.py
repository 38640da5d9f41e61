"""The public API is sealed: every exported function and class has a use."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import authormine

ROOT = Path(__file__).resolve().parent.parent
# read only by tests until the run manifest carries the share of authors
ALLOWED = {"author_proportion"}


def library_use_imports() -> set[str]:
    """The names that README's `Library use` example imports."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no Library use example"
    return {alias.name for node in ast.walk(ast.parse(block.group(1)))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_is_used():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "authormine").glob("*.py"))
               if path.name != "__init__.py"]
    documented = library_use_imports()
    unused = []
    for name in authormine.__all__:
        obj = getattr(authormine, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        mention = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(?:def|class) {name}\b", re.M)
        uses = sum(len(mention.findall(text)) - len(definition.findall(text))
                   for text in sources)
        if uses == 0 and name not in documented and name not in ALLOWED:
            unused.append(name)
    assert unused == [], f"exported but used nowhere in the package or README: {unused}"


def test_developer_identity_is_the_email_past_ingest():
    """`DeveloperId` is the ingest record's author and nothing more: the
    engine keys developers by canonical email, and scores straight from
    each file's frozen counters."""
    package = ROOT / "src" / "authormine"
    naming = sorted(path.name for path in package.glob("*.py")
                    if re.search(r"\bDeveloperId\b", path.read_text(encoding="utf-8")))
    assert naming == ["__init__.py", "ingest.py"]
    removed = re.compile(r"\b(?:FileDevCounters|counters_for|sort_key)\b")
    stale = sorted(str(path.relative_to(ROOT)) for path in package.rglob("*")
                   if path.is_file() and path.suffix != ".pyc"
                   and removed.search(path.read_text(encoding="utf-8", errors="replace")))
    assert stale == []


def test_cli_imports_no_array_library():
    """The package has no runtime dependency: loading the command line
    pulls in no numpy, whose import alone costs every command time and
    memory before it reads the log."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, authormine.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
