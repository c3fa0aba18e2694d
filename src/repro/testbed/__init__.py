"""The MosquitoNet test-bed (Figure 5)."""

from repro.testbed.topology import Addresses, Testbed, build_testbed

__all__ = ["Addresses", "Testbed", "build_testbed"]
