import pathlib
import sys
import tokenize

import pytest

import normlab

TOKEN_STEP = 8192  # CPython 3.11 allocates about 0.46 MB more to compile a module of this many tokens


def _parser_tokens(path) -> int:
    """The tokens of a module the parser reads: every token but comments, non-logical newlines and the encoding."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as f:
        return sum(t.type not in skip for t in tokenize.tokenize(f.readline))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the step is CPython 3.11's")
def test_every_module_stays_below_the_compile_memory_step():
    counts = {p.name: _parser_tokens(p) for p in sorted(pathlib.Path(normlab.__file__).parent.glob("*.py"))}
    assert "attainment.py" in counts
    over = {name: n for name, n in counts.items() if n >= TOKEN_STEP}
    assert not over, f"modules at or above {TOKEN_STEP} parser tokens: {over}"
