"""Front-line detection: request scoring, durable incidents, and
blast-radius previews (detect → preview →
one-click repair)."""

from repro.detect.incidents import (
    OPEN_STATUSES,
    IncidentManager,
)
from repro.detect.rules import (
    AclSelfGrantRule,
    DetectionResult,
    Detector,
    Finding,
    InjectionSignatureRule,
    ParamShapeRule,
    Rule,
    SessionMisuseRule,
    default_rules,
)

__all__ = [
    "AclSelfGrantRule",
    "DetectionResult",
    "Detector",
    "Finding",
    "IncidentManager",
    "InjectionSignatureRule",
    "OPEN_STATUSES",
    "ParamShapeRule",
    "Rule",
    "SessionMisuseRule",
    "default_rules",
]
