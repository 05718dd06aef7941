"""A minimal quantum while-language over partial density operators."""

from .ast import ApplyUnitary, Branch, Guard, Program, While, z_basis
from .gates import GATES
from .interpreter import Denotation, RunReport, denote, interpret
from .parser import parse

__all__ = [
    "ApplyUnitary",
    "Branch",
    "Denotation",
    "GATES",
    "Guard",
    "Program",
    "RunReport",
    "While",
    "denote",
    "interpret",
    "parse",
    "z_basis",
]
