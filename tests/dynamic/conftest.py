"""Make the C front-end test helpers importable from ``tests/dynamic``.

The Inspector suites reuse the corpus source sets of
``tests/cparse/test_lexer_golden.py`` and the token mutations and expression
strategies of ``tests/cparse/test_parser_differential.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "cparse"))
