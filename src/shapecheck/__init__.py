"""Static checking of unboxed constructor annotations via head shapes.

Submodules: `decls` (the declaration language and checker), `shapes` (the
head-shape algebra), `calculus` (trace-monitored normalization), `measure`
(the termination measure), `cppmacro` (hide-set macro expansion), `oracle`
(cross-checking suites), `nodes` (the slotted, immutable base of the term,
type and shape values) and `cli`.
"""

__version__ = "0.1.0"
