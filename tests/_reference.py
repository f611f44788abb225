"""The random-friend law drawn directly, without walking: the reference
the walk's stationary law is tested against (the package samples it only
by walking)."""


def sample_random_friends(g, rs, size):
    """Uniform edges, then a fair coin over each edge's two ends, so node v
    is drawn with probability exactly d(v) / edge_end_count."""
    e = rs.generator.integers(0, g.edge_count, size=size)
    return g.edges[e, rs.generator.integers(0, 2, size=size)]
