from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("aflow", derandomize=True, deadline=None, database=None)
settings.load_profile("aflow")
