"""Physical-layer security toolkit: coset wiretap codes, equivocation
analysis, and channel-sounding secrecy maps over an OFDM-style grid."""

__version__ = "0.1.0"

from . import bitlinalg, channel, codes, maps, sweep, wiretap  # noqa: F401
