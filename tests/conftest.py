import itertools

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("aflow", derandomize=True, deadline=None, database=None)
settings.load_profile("aflow")


@pytest.fixture(scope="session")
def csv_file(tmp_path_factory):
    """``csv_file(text)``: the path of a new file holding ``text`` as UTF-8 bytes.

    Session-scoped, so property tests can use it too.
    """
    directory = tmp_path_factory.mktemp("csv")
    names = itertools.count()

    def write(text):
        path = directory / f"{next(names)}.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    return write
