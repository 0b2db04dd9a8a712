import ldglayer

RETIRED = ("eval_trace", "flux_values", "FluxValues", "error_energy_norm",
           "l2_error", "linf_error_fine")


def test_public_surface():
    """Every exported name resolves, none twice, and the retired one-value
    readers stay retired (``PiecewisePoly.trace_*_all``, ``flux_table`` and
    ``error_record`` read the same values)."""
    for name in ldglayer.__all__:
        getattr(ldglayer, name)
    assert len(set(ldglayer.__all__)) == len(ldglayer.__all__)
    for name in RETIRED:
        assert name not in ldglayer.__all__
        assert not hasattr(ldglayer, name)
