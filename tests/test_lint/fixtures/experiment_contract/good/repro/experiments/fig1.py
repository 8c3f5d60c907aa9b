"""Good: a figure module exporting the full campaign/report surface."""


def matrix(scale):
    """Enumerate the jobs for this figure."""
    return []


def assemble(scale, results):
    """Fold raw results into figure data."""
    return {"scale": scale, "results": results}


def run(scale=None, runner=None, extra=None):
    """Extra *optional* parameters beyond the contract arity are fine."""
    return assemble(scale, [])


def tables(data):
    """Declare the figure's tables."""
    return []


def charts(data):
    """Render the figure charts."""
    return []


def points(data):
    """Flatten figure data into report points."""
    return []


def references():
    """Paper-reference values for verification."""
    return {}
