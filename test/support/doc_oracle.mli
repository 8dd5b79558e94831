(** Reference definitions of {!Xmldoc.Document}'s child-derived axes:
    filters over the node's descendants, the way the store answered
    before child steps seeked.  Slow (O(subtree) per step) and obviously
    right, including on stores with orphans — the oracle for the store's
    own axes. *)

val children : Xmldoc.Document.t -> Ordpath.t -> Xmldoc.Node.t list
val last_child : Xmldoc.Document.t -> Ordpath.t -> Xmldoc.Node.t option
val following_siblings : Xmldoc.Document.t -> Ordpath.t -> Xmldoc.Node.t list
val preceding_siblings : Xmldoc.Document.t -> Ordpath.t -> Xmldoc.Node.t list
