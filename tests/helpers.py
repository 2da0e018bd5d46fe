"""Helpers shared by the test modules."""


def density_stack(dens):
    """The (n, g_theta, g_k) densities of a zak.envelope_densities pair
    (profile, k_table): profile[:, :, None] * k_table."""
    profile, k_table = dens
    return profile[:, :, None] * k_table
