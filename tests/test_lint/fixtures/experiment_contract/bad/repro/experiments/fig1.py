"""Bad: missing references() and tables(); run() takes three required
positionals."""


def matrix(scale):
    """Enumerate the jobs for this figure."""
    return []


def assemble(scale, results):
    """Fold raw results into figure data."""
    return {"scale": scale, "results": results}


def run(scale, runner, mandatory_extra):
    """A third *required* positional breaks every caller."""
    return assemble(scale, [])


def charts(data):
    """Render the figure charts."""
    return []


def points(data):
    """Flatten figure data into report points."""
    return []
