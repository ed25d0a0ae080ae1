from collections import Counter

import interdict


def test_all_names_resolve_and_are_listed_once():
    names = interdict.__all__
    assert [n for n in names if not hasattr(interdict, n)] == []
    assert [n for n, k in Counter(names).items() if k > 1] == []
