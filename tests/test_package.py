import quasicone


def test_every_public_name_resolves():
    missing = [n for n in quasicone.__all__ if not hasattr(quasicone, n)]
    assert missing == []
    assert len(set(quasicone.__all__)) == len(quasicone.__all__)
