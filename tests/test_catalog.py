"""Feature catalog: ids, families, and published per-study sets."""

import pytest

from swipebench.errors import UnknownFeatureId
from swipebench.features.catalog import (ALL_IDS, FAMILIES, FEATURE_COUNT,
                                         FEATURES, STUDY_SETS, STUDY_SIZES,
                                         X_COORD_IDS, Y_COORD_IDS,
                                         resolve_feature_ids)


def test_catalog_is_dense_and_complete():
    assert FEATURE_COUNT == 149
    assert ALL_IDS == tuple(range(1, 150))
    assert sorted(FEATURES) == list(ALL_IDS)
    names = [f.name for f in FEATURES.values()]
    assert len(set(names)) == len(names)  # no duplicate names
    for f in FEATURES.values():
        assert f.family in FAMILIES


def test_every_study_set_has_its_published_size():
    expected = {
        "frank2013": 30, "li2013": 14, "serwadda2013": 28, "xu2014": 37,
        "murmuria2015": 5, "antal2015": 15, "mahbub2016": 24, "shen2016": 58,
        "filippov2018": 11, "syed2019": 18, "rocha2021": 12, "incel2021": 30,
    }
    assert STUDY_SIZES == expected
    for key, ids in STUDY_SETS.items():
        assert len(ids) == expected[key], key
        assert list(ids) == sorted(set(ids)), key
        assert all(1 <= fid <= 149 for fid in ids), key


def test_fourteen_feature_set_rows_cover_the_catalog():
    # 12 study sets + the full set + a selected set = the 14 standard rows
    assert len(STUDY_SETS) == 12
    union = set()
    for ids in STUDY_SETS.values():
        union |= set(ids)
    assert union <= set(ALL_IDS)


def test_study_membership_is_reflected_per_feature():
    for key, ids in STUDY_SETS.items():
        for fid in ids:
            assert key in FEATURES[fid].studies
    for f in FEATURES.values():
        for key in f.studies:
            assert f.fid in STUDY_SETS[key]


def test_lookup_errors():
    # ids run 1..149; one past either end is not a feature
    for fid in (150, 0):
        with pytest.raises(UnknownFeatureId,
                           match=f"no feature with id {fid}"):
            resolve_feature_ids([fid])


def test_resolve_feature_ids_forms():
    # names are resolve_feature_set's; a bare string is not an id list
    for name in ("all", "ALL", "frank2013", "123"):
        with pytest.raises(UnknownFeatureId):
            resolve_feature_ids(name)
    assert resolve_feature_ids(ALL_IDS) == ALL_IDS
    assert resolve_feature_ids([9, 5, 5, 1]) == (1, 5, 9)
    assert resolve_feature_ids((149,)) == (149,)
    with pytest.raises(UnknownFeatureId, match="no feature with id 999"):
        resolve_feature_ids([1, 999])
    with pytest.raises(UnknownFeatureId):
        resolve_feature_ids([])
    assert resolve_feature_ids(["3", " 2", 1]) == (1, 2, 3)
    # a bool is not an id, although operator.index(True) is 1
    for bad in ([1, "x"], [1.5], [2.0], [[1]], 7, [True, 2], [2, False]):
        with pytest.raises(UnknownFeatureId,
                           match="feature ids must be integers"):
            resolve_feature_ids(bad)


def test_coordinate_id_lists_are_coordinate_features():
    for fid in X_COORD_IDS:
        assert "x" in FEATURES[fid].name.lower()
    for fid in Y_COORD_IDS:
        assert "y" in FEATURES[fid].name.lower()
    assert not set(X_COORD_IDS) & set(Y_COORD_IDS)
