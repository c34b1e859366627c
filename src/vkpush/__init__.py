"""Corridor normalization of van Kampen diagrams over abelianization maps."""

from vkpush.abelianization import AbelianizationMap
from vkpush.diagram import Diagram, DiagramBuilder
from vkpush.oracle import (
    FillingCertificate,
    brute_area,
    certificate_to_diagram,
    search_filling,
)
from vkpush.presentation import Presentation, ValidationError, parse_word, word_to_text
from vkpush.pusher import PushError, PushStep, PushTrace, push_to_corridor
from vkpush.scheme import (
    CertificationError,
    PushingScheme,
    SchemeConstants,
    certify_coverage,
)

__all__ = [
    "AbelianizationMap",
    "CertificationError",
    "Diagram",
    "DiagramBuilder",
    "FillingCertificate",
    "Presentation",
    "PushError",
    "PushStep",
    "PushTrace",
    "PushingScheme",
    "SchemeConstants",
    "ValidationError",
    "brute_area",
    "certificate_to_diagram",
    "certify_coverage",
    "parse_word",
    "push_to_corridor",
    "search_filling",
    "word_to_text",
]

__version__ = "0.1.0"
