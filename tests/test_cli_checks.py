"""Collects the command-line checks of `cli_checks`, so the tier-1 run runs them."""

import pytest

import cli_checks


@pytest.mark.parametrize("check", cli_checks.CHECKS, ids=lambda check: check.__name__)
def test_cli_check(check, tmp_path):
    check(tmp_path)
