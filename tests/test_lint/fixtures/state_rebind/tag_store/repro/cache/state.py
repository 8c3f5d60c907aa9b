"""Bad: TagStore.flush() rebinds the lines a compiled kernel binds."""

from array import array


class TagStore:
    """The one copy of a directory's tag state, in flat arrays."""

    def __init__(self, num_sets, assoc):
        self.lines = array("q", [-1]) * (num_sets * assoc)

    def flush(self):
        """Rebinding leaves every bound kernel probing the old lines."""
        self.lines = array("q", [-1]) * len(self.lines)
