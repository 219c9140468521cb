"""Desk-scale deterministic simulator of a quorum-governed, privacy-preserving
epidemic contact-tracing infrastructure: proximity records swept a block of
minutes at a time at simulated cell stations and cut into per-station sets,
push-only encrypted edge storage, a threshold-crypto data vault, and a
contact-analysis pipeline ending in a who-infected-whom DAG."""

from .artifacts import RunReport
from .attacks import attack_suite
from .records import (
    BsCode,
    PdrSet,
    PhoneId,
    PrecisionClass,
    Sweep,
    group_into_sets,
)
from .runner import run
from .world import GroundTruth, MobilityTrace, ProviderRegistry, ScenarioConfig, generate_world, measure, observe

__all__ = [
    "BsCode",
    "GroundTruth",
    "MobilityTrace",
    "PdrSet",
    "PhoneId",
    "PrecisionClass",
    "ProviderRegistry",
    "RunReport",
    "ScenarioConfig",
    "Sweep",
    "attack_suite",
    "generate_world",
    "group_into_sets",
    "measure",
    "observe",
    "run",
]

__version__ = "0.1.0"
