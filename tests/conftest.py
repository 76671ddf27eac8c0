"""Hypothesis runs derandomized, without deadlines and without an example
database, so the property tests are deterministic and do not depend on the
machine's speed.  Without a database no examples are stored, but Hypothesis
still writes under ``.hypothesis/``: ``constants/`` caches the literals it
collects from each changed source file, and ``unicode_data/`` the character
tables behind ``st.characters()``.  ``.gitignore`` lists the directory."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
