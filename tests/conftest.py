"""Suite-wide test settings."""

try:
    from hypothesis import settings
except ImportError:  # hypothesis is optional; its modules fail to collect
    pass
else:
    # no example database: no run replays examples that an earlier run saved
    # in .hypothesis/, so a result never depends on the local checkout's history
    settings.register_profile("disctrace", database=None)
    settings.load_profile("disctrace")
