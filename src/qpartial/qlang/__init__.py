"""A minimal quantum while-language over partial density operators."""

from .ast import ApplyUnitary, Branch, Guard, Program, While
from .gates import GATES, denote_unitary
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
    "denote_unitary",
    "interpret",
    "parse",
]
