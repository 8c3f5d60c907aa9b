"""Bad: missing references() and tables(); assemble() takes three required
positionals."""


def matrix(scale):
    """Enumerate the jobs for this figure."""
    return []


def assemble(scale, results, mandatory_extra):
    """A third *required* positional breaks every caller."""
    return {"scale": scale, "results": results}


def charts(data):
    """Render the figure charts."""
    return []


def points(data):
    """Flatten figure data into report points."""
    return []
