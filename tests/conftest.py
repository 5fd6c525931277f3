import pytest

from fixtures import BASE64, objdump_listings


@pytest.fixture(scope="session")
def base64_listings():
    """objdump -d and objdump -d -M intel of base64, a real listing of a
    few thousand instructions; skips when objdump or the binary is absent."""
    listings = objdump_listings(BASE64)
    if listings is None:
        pytest.skip(f"needs objdump and {BASE64}")
    return listings
