"""The package's export list against its namespace."""

from types import ModuleType

import kneser_tverberg


def test_all_is_sorted_and_names_every_public_export():
    public = sorted(
        name
        for name, value in vars(kneser_tverberg).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert kneser_tverberg.__all__ == sorted(kneser_tverberg.__all__)
    assert kneser_tverberg.__all__ == public
