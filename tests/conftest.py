"""Shared loaders for the bundled fixture files."""

import pytest

import symq.abelian
from symq.serialize import (
    fixture_path,
    load_cochain,
    load_group,
    load_module,
    load_rack,
)


def rack(name):
    return load_rack(fixture_path(f"rack_{name}.json"))


def module(name, base):
    return load_module(fixture_path(f"module_{name}.json"), base)


def cochain(name, base, m):
    return load_cochain(fixture_path(f"cocycle_{name}.json"), base.size, m.A)


@pytest.fixture
def t2():
    return rack("t2")


@pytest.fixture
def core_z4():
    return rack("core_z4")


@pytest.fixture
def snf_calls(monkeypatch):
    """Count the Smith normal form factorizations made by symq.abelian."""
    calls = []
    original = symq.abelian.smith_normal_form

    def counting(M):
        calls.append((len(M), len(M[0]) if M else 0))
        return original(M)

    monkeypatch.setattr(symq.abelian, "smith_normal_form", counting)
    return calls
