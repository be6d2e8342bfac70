"""The geometric swipe-feature catalog.

149 features, identified by the ids 1..149 used throughout the toolkit.
Each entry carries a family label and the set of earlier touch-authentication
studies whose published feature set contains it; those per-study subsets are
what the feature-set benchmark sweeps over. Redundant slots (e.g. 56 vs 61,
6 vs 76) are kept deliberately: subsets reference ids, so every published
id must exist.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..errors import UnknownFeatureId

FEATURE_COUNT = 149


def _r(a: int, b: int) -> list[int]:
    return list(range(a, b + 1))


# fid -> (name, family)
_ENTRIES: dict[int, tuple[str, str]] = {
    1: ("start x", "endpoint"),
    2: ("start y", "endpoint"),
    3: ("stop x", "endpoint"),
    4: ("stop y", "endpoint"),
    5: ("stroke duration", "temporal"),
    6: ("end-to-end distance", "distance"),
    7: ("mid-stroke pressure", "pressure"),
    8: ("mid-stroke area", "area"),
    9: ("length of trajectory", "distance"),
    10: ("inter-stroke time", "temporal"),
    11: ("mean resultant length", "angle"),
    12: ("median acceleration at first 5 points", "acceleration"),
    13: ("median velocity at last 3 points", "velocity"),
    14: ("average velocity", "velocity"),
    15: ("up/down/left/right", "flag"),
    16: ("direction of direct line", "direction"),
    17: ("average direction", "direction"),
    18: ("ratio of direct distance to trajectory length", "shape"),
    19: ("20% percentile velocity", "velocity"),
    20: ("50% percentile velocity", "velocity"),
    21: ("80% percentile velocity", "velocity"),
    22: ("20% percentile acceleration", "acceleration"),
    23: ("50% percentile acceleration", "acceleration"),
    24: ("80% percentile acceleration", "acceleration"),
    25: ("20% percentile deviation", "deviation"),
    26: ("50% percentile deviation", "deviation"),
    27: ("80% percentile deviation", "deviation"),
    28: ("largest deviation", "deviation"),
    29: ("pressure at first point", "pressure"),
    30: ("area at first point", "area"),
    31: ("first moving direction", "direction"),
    32: ("average moving direction", "direction"),
    33: ("average moving curvature", "shape"),
    34: ("average curvature distance", "shape"),
    35: ("average pressure", "pressure"),
    36: ("average touch area", "area"),
    37: ("max-area portion", "area"),
    38: ("min-pressure portion", "pressure"),
    39: ("average acceleration", "acceleration"),
    40: ("std dev pressure", "pressure"),
    41: ("std dev area", "area"),
    42: ("std dev velocity", "velocity"),
    43: ("std dev acceleration", "acceleration"),
    44: ("first quartile pressure", "pressure"),
    45: ("first quartile area", "area"),
    46: ("first quartile velocity", "velocity"),
    47: ("first quartile acceleration", "acceleration"),
    48: ("third quartile pressure", "pressure"),
    49: ("third quartile area", "area"),
    50: ("third quartile velocity", "velocity"),
    51: ("third quartile acceleration", "acceleration"),
    52: ("extreme point 1 x", "endpoint"),
    53: ("extreme point 1 y", "endpoint"),
    54: ("extreme point 2 x", "endpoint"),
    55: ("extreme point 2 y", "endpoint"),
    56: ("last 2 points tangent", "direction"),
    57: ("velocity at first point", "velocity"),
    58: ("area at last point", "area"),
    59: ("pressure at last point", "pressure"),
    60: ("velocity at last point", "velocity"),
    61: ("last moving direction", "direction"),
    62: ("average points distance", "distance"),
    63: ("std dev points distance", "distance"),
    64: ("ldp x", "ldp"),
    65: ("ldp y", "ldp"),
    66: ("ldp area", "ldp"),
    67: ("ldp pressure", "ldp"),
    68: ("ldp velocity", "ldp"),
    69: ("start to ldp latency", "ldp"),
    70: ("start to ldp length", "ldp"),
    71: ("start to ldp direction", "ldp"),
    72: ("ldp to stop latency", "ldp"),
    73: ("ldp to stop length", "ldp"),
    74: ("ldp to stop direction", "ldp"),
    75: ("ratio distance to ldp length", "ldp"),
    76: ("total displacement length", "distance"),
    77: ("ratio of displacement and trajectory length", "shape"),
    78: ("median points distance", "distance"),
    79: ("iqr points distance", "distance"),
    80: ("skewness points distance", "distance"),
    81: ("kurtosis points distance", "distance"),
    82: ("average deviation", "deviation"),
    83: ("std dev deviation", "deviation"),
    84: ("iqr deviation", "deviation"),
    85: ("skewness deviation", "deviation"),
    86: ("kurtosis deviation", "deviation"),
    87: ("average pairwise angle", "angle"),
    88: ("median pairwise angle", "angle"),
    89: ("std dev pairwise angle", "angle"),
    90: ("iqr pairwise angle", "angle"),
    91: ("skewness pairwise angle", "angle"),
    92: ("kurtosis pairwise angle", "angle"),
    93: ("average phase angle", "angle"),
    94: ("median phase angle", "angle"),
    95: ("std dev phase angle", "angle"),
    96: ("iqr phase angle", "angle"),
    97: ("skewness phase angle", "angle"),
    98: ("kurtosis phase angle", "angle"),
    99: ("displacement to duration ratio", "velocity"),
    100: ("iqr velocity", "velocity"),
    101: ("skewness velocity", "velocity"),
    102: ("kurtosis velocity", "velocity"),
    103: ("average angular velocity", "angle"),
    104: ("median angular velocity", "angle"),
    105: ("std dev angular velocity", "angle"),
    106: ("iqr angular velocity", "angle"),
    107: ("skewness angular velocity", "angle"),
    108: ("kurtosis angular velocity", "angle"),
    109: ("iqr acceleration", "acceleration"),
    110: ("skewness acceleration", "acceleration"),
    111: ("kurtosis acceleration", "acceleration"),
    112: ("iqr pressure", "pressure"),
    113: ("skewness pressure", "pressure"),
    114: ("kurtosis pressure", "pressure"),
    115: ("min pressure", "pressure"),
    116: ("max pressure", "pressure"),
    117: ("min area", "area"),
    118: ("max area", "area"),
    119: ("min velocity", "velocity"),
    120: ("max velocity", "velocity"),
    121: ("min pressure change", "pressure"),
    122: ("max pressure change", "pressure"),
    123: ("mean pressure change", "pressure"),
    124: ("median pressure change", "pressure"),
    125: ("min area change", "area"),
    126: ("max area change", "area"),
    127: ("mean area change", "area"),
    128: ("median area change", "area"),
    129: ("x at max velocity", "endpoint"),
    130: ("y at max velocity", "endpoint"),
    131: ("x at min velocity", "endpoint"),
    132: ("y at min velocity", "endpoint"),
    133: ("quadratic pressure fit x2", "pressure"),
    134: ("quadratic pressure fit x", "pressure"),
    135: ("quadratic pressure fit n", "pressure"),
    136: ("min time between points", "temporal"),
    137: ("max time between points", "temporal"),
    138: ("avg time between points", "temporal"),
    139: ("max deviation of mean x", "deviation"),
    140: ("max deviation of mean y", "deviation"),
    141: ("20% percentile deviation of mean x", "deviation"),
    142: ("20% percentile deviation of mean y", "deviation"),
    143: ("median deviation of mean x", "deviation"),
    144: ("median deviation of mean y", "deviation"),
    145: ("80% percentile deviation of mean x", "deviation"),
    146: ("80% percentile deviation of mean y", "deviation"),
    147: ("direction vector x", "direction"),
    148: ("direction vector y", "direction"),
    149: ("horizontal/vertical flag", "flag"),
}

FAMILIES = ("endpoint", "temporal", "distance", "velocity", "acceleration",
            "deviation", "direction", "pressure", "area", "ldp", "angle",
            "shape", "flag")

# Ids published by each source study, as cited feature by feature.
_STUDY_BASE: dict[str, list[int]] = {
    "frank2013": _r(1, 28),  # Frank et al. 2013 (Touchalytics)
    "li2013": [1, 2, 5, 9] + _r(29, 38),  # Li et al. 2013
    "serwadda2013": ([5, 6, 7, 8, 9, 14, 20, 23, 35, 36]
                     + _r(39, 56)),  # Serwadda et al. 2013
    "xu2014": ([1, 2, 3, 4, 5, 6, 9, 14, 16, 18, 29, 30, 31, 35, 36, 40, 41]
               + _r(57, 75)),  # Xu et al. 2014
    "murmuria2015": [5, 6, 16, 35, 36],  # Murmuria et al. 2015
    "antal2015": [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 15, 16, 28,
                  32],  # Antal et al. 2015
    "mahbub2016": ([1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 15] + _r(18, 28)
                   + [32, 42]),  # Mahbub et al. 2016
    "shen2016": ([1, 2, 3, 4, 5, 7, 9, 14, 20, 23, 26, 35, 39, 40, 42, 43,
                  62, 63] + _r(76, 114)),  # Shen et al. 2016
    "filippov2018": [1, 2, 3, 4, 5, 6, 9, 14, 36, 147, 148],  # Filippov et al. 2018
    "syed2019": [1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 16, 18, 19, 20, 21,
                 149],  # Syed et al. 2019
    "rocha2021": [36, 62, 115, 116, 117, 118] + _r(133, 138),  # Rocha et al. 2021
    "incel2021": ([1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 16, 18]
                  + _r(19, 24) + [32] + _r(139, 146)),  # Incel et al. 2021
}

# The published set sizes disagree with the per-feature citations for four
# studies. Reconciled toward the published sizes by padding each short study
# with the lowest-numbered ids it does not already carry.
STUDY_PADDING: dict[str, tuple[int, ...]] = {
    "frank2013": (29, 30),
    "xu2014": (7,),
    "shen2016": (6,),
    "syed2019": (8, 11),
}

# Published feature-set sizes, which the padded sets must match.
STUDY_SIZES: dict[str, int] = {
    "frank2013": 30, "li2013": 14, "serwadda2013": 28, "xu2014": 37,
    "murmuria2015": 5, "antal2015": 15, "mahbub2016": 24, "shen2016": 58,
    "filippov2018": 11, "syed2019": 18, "rocha2021": 12, "incel2021": 30,
}

STUDY_SETS: dict[str, tuple[int, ...]] = {
    key: tuple(sorted(set(base) | set(STUDY_PADDING.get(key, ()))))
    for key, base in _STUDY_BASE.items()
}


@dataclass(frozen=True, slots=True)
class FeatureDef:
    fid: int
    name: str
    family: str
    studies: tuple[str, ...]


def _build() -> dict[int, FeatureDef]:
    assert len(_ENTRIES) == FEATURE_COUNT
    assert sorted(_ENTRIES) == list(range(1, FEATURE_COUNT + 1))
    for key, ids in STUDY_SETS.items():
        assert len(ids) == STUDY_SIZES[key], (key, len(ids))
    table = {}
    for fid, (name, family) in _ENTRIES.items():
        assert family in FAMILIES, (fid, family)
        studies = tuple(s for s in sorted(STUDY_SETS) if fid in STUDY_SETS[s])
        table[fid] = FeatureDef(fid=fid, name=name, family=family, studies=studies)
    return table


FEATURES: dict[int, FeatureDef] = _build()
ALL_IDS: tuple[int, ...] = tuple(range(1, FEATURE_COUNT + 1))

# Coordinate-valued features: they translate with the swipe while every
# other feature is translation invariant.
X_COORD_IDS = (1, 3, 52, 54, 64, 129, 131)
Y_COORD_IDS = (2, 4, 53, 55, 65, 130, 132)


def _feature_id(v) -> int:
    if isinstance(v, bool):  # operator.index(True) is 1
        raise TypeError(v)
    return int(v) if isinstance(v, str) else operator.index(v)


def resolve_feature_ids(spec) -> tuple[int, ...]:
    """An iterable of feature ids (ints or decimal strings, not bools) as a
    sorted tuple of valid ids. Names of feature sets are resolved by
    ``experiments.resolve_feature_set``."""
    if isinstance(spec, str):
        raise UnknownFeatureId(f"feature ids must be an iterable of "
                               f"integers, not the string {spec!r}")
    try:
        ids = sorted({_feature_id(v) for v in spec})
    except (TypeError, ValueError):
        raise UnknownFeatureId(
            f"feature ids must be integers: {spec!r}") from None
    if not ids:
        raise UnknownFeatureId("empty feature-id list")
    for fid in ids:
        if fid not in FEATURES:
            raise UnknownFeatureId(f"no feature with id {fid}")
    return tuple(ids)

