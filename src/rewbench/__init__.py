"""String rewriting workbench for monoids with zero.

Names are imported from the submodule that defines them, e.g.
``from rewbench.core import normalize``: core, matcher, completion,
catalog, enumeration, witnesses, congruence, dehn, identities,
parallel and cli.  Importing one loads only the layers it uses.
"""

__version__ = "0.1.0"
