"""Hypothesis runs derandomized, without a deadline or an example
database, and with a bounded number of examples, so that the suite is
deterministic and its time stays bounded."""

from hypothesis import settings

settings.register_profile("abtqft", derandomize=True, deadline=None,
                          database=None, max_examples=200)
settings.load_profile("abtqft")
