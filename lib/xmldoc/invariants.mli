(** Structural well-formedness checks over a document store, used by the
    failure-injection test-suites after random update sequences.  A valid
    store satisfies:

    - the document node is present, with label ["/"] and kind [Document];
    - every node's identifier is a well-formed {!Ordpath} label;
    - every non-document node's parent identifier is present (the store
      is closed under parenthood — views and databases both are trees);
    - text and comment nodes are leaves; attribute nodes carry only text
      children; only the document node has kind [Document];
    - the document node carries no text children (XML well-formedness);
    - element children of the document node number at most one for a
      well-formed XML document ({!check_document} only; views may prune
      the root element away). *)

val check : Document.t -> string list
(** Violations, human-readable; [[]] when the store is a valid tree.
    One document-order pass; identifiers are rendered only for the
    nodes reported. *)

val check_scoped : Document.t -> roots:Ordpath.t list -> string list
(** The check of a store that changed only inside the subtrees of
    [roots]: it visits the document node, each root's parent and the
    nodes of those subtrees, so it costs the size of the change, not of
    the store.  Whenever the store before the change passed {!check} (and
    differed from this one only inside those subtrees), the answer is
    exactly {!check}'s, list and order — every violation a local change
    can cause sits on a node it visits.  On any other store it may miss
    violations outside the subtrees.  A root equal to the document node
    makes it {!check}. *)

val check_document : Document.t -> string list
(** {!check} plus the single-root-element XML constraint. *)

val is_valid : Document.t -> bool
