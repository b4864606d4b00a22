import doctest

import pytest

import kltangent.rootsys
import kltangent.rt_ring
import kltangent.weyl
import oracles


@pytest.mark.parametrize("module", [kltangent.rootsys, kltangent.weyl, kltangent.rt_ring, oracles])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
