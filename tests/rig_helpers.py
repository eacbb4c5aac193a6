"""The rig the tests build their payload problems on."""

import dataclasses

from cablelift.plant import SystemParams
from cablelift.scenario import default_system


def rig(**changes) -> SystemParams:
    """The presets' four-vehicle square rig with `changes` to its fields."""
    return dataclasses.replace(default_system(), **changes)
