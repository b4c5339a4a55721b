"""Head-reduction laboratory for storage operators on Church numerals."""

from .builtins import prelude
from .checker import Verdict, check_operator, run_check
from .syntax import parse, pretty
from .terms import App, Const, Family, Lam, Var
from .theorems import verify_theorem1_instance, verify_theorem2_instance, verify_theorem3

__version__ = "0.1.0"

__all__ = [
    "App", "Const", "Family", "Lam", "Var", "Verdict", "check_operator",
    "parse", "prelude", "pretty", "run_check", "verify_theorem1_instance",
    "verify_theorem2_instance", "verify_theorem3",
]
