"""A minimal quantum while-language over partial density operators."""

from .ast import ApplyUnitary, Branch, Program, Seq, Skip, While
from .gates import GATES, denote_unitary
from .interpreter import Denotation, RunReport, denote, interpret
from .parser import parse

__all__ = [
    "ApplyUnitary",
    "Branch",
    "Denotation",
    "GATES",
    "Program",
    "RunReport",
    "Seq",
    "Skip",
    "While",
    "denote",
    "denote_unitary",
    "interpret",
    "parse",
]
