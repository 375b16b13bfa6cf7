"""Shared helpers: gallery access and system builders used across the suite."""

from __future__ import annotations

import contextlib
import signal
from pathlib import Path

import pytest

from stabkit.schema import SystemFile, load_system

GALLERY = Path(__file__).resolve().parent.parent / "src" / "stabkit" / "gallery"


def gallery_file(name: str) -> Path:
    return GALLERY / f"{name}.json"


def gallery_system(name: str):
    """Build the toolkit object for a bundled gallery definition."""
    return load_system(gallery_file(name)).build()


def gallery_doc(name: str) -> SystemFile:
    return load_system(gallery_file(name))


@pytest.fixture
def build():
    return gallery_system


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail with TimeoutError instead of hanging when the body overruns."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
