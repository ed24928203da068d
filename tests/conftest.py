"""Settings shared by the whole test suite."""

from hypothesis import settings

# Property tests draw the same examples on every run and carry no time
# limit, so a result depends on the code alone, not on the seed or the
# speed of the machine. No example database is written.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
