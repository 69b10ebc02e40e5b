"""Colour-table refusals that no table or algebra file can reach, since
both formats build their entries in a shape that rules them out.  The
refusals a file can reach run through the command line in ``test_cli``."""
import re

import pytest

from fdcalc.colours import ColourEntry, ColourTable, ColourTableError

SPECIAL = ColourEntry("X", "symmetric", 2, special=True)


@pytest.mark.parametrize("entries,message", [
    ([ColourEntry("X", "spin", 2, special=True)], "unknown kind 'spin'"),
    ([ColourEntry("T", "coupon", 4, special=True)],
     "T: coupon arity must be (m, n)"),
    ([ColourEntry("Y", "symmetric", 2, special=True, bold="X"), SPECIAL],
     "Y: special colours have no bold partner"),
    ([ColourEntry("x", "symmetric", 2), SPECIAL],
     "x: ordinary colour needs a special partner"),
], ids=["kind", "coupon arity shape", "special with partner",
        "ordinary without partner"])
def test_refusals_files_cannot_reach(entries, message):
    with pytest.raises(ColourTableError, match=re.escape(message)):
        ColourTable(entries)
