"""Good: a static table module — the figure surface minus charts()."""


def matrix(scale=None):
    """No simulation jobs."""
    return []


def assemble(scale, results):
    """Closed-form data; the campaign results are unused."""
    return {}


def tables(data):
    """Declare the table's blocks."""
    return []


def points(data=None):
    """Flatten the data into report points."""
    return []


def references():
    """Paper-reference values for verification."""
    return []
