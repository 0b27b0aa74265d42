"""A pinned digest of a low tower level, asserted first by the tests that
build the towers up to phi_9: a wrong walk stops cancelling at the low
levels, and the levels above then grow for tens of seconds before the test
fails, where phi_5 takes milliseconds."""

import hashlib

from pdocong import phi_poly


def assert_phi5_digest():
    # SHA-256 of repr(phi_poly(5).terms()), taken before the check was added
    digest = hashlib.sha256(repr(phi_poly(5).terms()).encode()).hexdigest()
    assert digest == "a7a4033cfc347963510fb4e3dd2a5c0b37f805a02c36176ef2a62e6643763ddd"
