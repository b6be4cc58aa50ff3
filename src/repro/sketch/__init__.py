"""Synopsis data structures for privacy-preserving counting (paper §6.1).

eyeWnder clients encode the ad IDs they saw into a count-min sketch (CMS)
whose cells can be additively blinded; the server sums blinded sketches and
queries the aggregate.
"""

from repro.sketch.hashing import HashFamily, stable_hash
from repro.sketch.countmin import CountMinSketch

__all__ = ["HashFamily", "stable_hash", "CountMinSketch"]
