(** The XML database of §3: a set of [node(n, v)] facts keyed by persistent
    {!Ordpath} identifiers.  Because ordpath order {e is} document order,
    the store is a map whose in-order traversal visits nodes in document
    order, with every parent visited before its children.

    All tree-geometry predicates of §3.2 ([child], [descendant],
    [following_sibling], …) are derived from identifiers, never stored. *)

type t

val empty : t
(** Contains only the document node [node(/, /)]. *)

val of_tree : Tree.t -> t
(** Builds a database whose root element is the given fragment. *)

val of_forest : Tree.t list -> t
(** Generalisation of {!of_tree} for several document-level nodes (e.g. a
    root element plus comments). *)

(** {1 Facts} *)

val find : t -> Ordpath.t -> Node.t option
val mem : t -> Ordpath.t -> bool
val label : t -> Ordpath.t -> string option
val kind : t -> Ordpath.t -> Node.kind option
val size : t -> int
(** Number of nodes, including the document node. *)

val nodes : t -> Node.t list
(** All nodes in document order (document node first). *)

val fold : (Node.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds in document order. *)

val iter : (Node.t -> unit) -> t -> unit

val to_seq : t -> Node.t Seq.t
(** All nodes in document order, without materialising a list. *)

val equal : t -> t -> bool

val root_element : t -> Node.t option
(** The first element child of the document node. *)

(** {1 Per-label index}

    The database maintains a persistent label → nodes index alongside the
    node map, kept exact by every mutator below (including the
    no-renumbering XUpdate primitives) — descendant name-tests and
    workload target selection read it instead of scanning the tree. *)

val by_label : t -> string -> Ordpath.t list
(** All nodes (any kind) carrying exactly this label, in document
    order. *)

val labelled : t -> string -> Node.t list
(** {!by_label}, resolved to nodes. *)

val find_labelled : t -> string -> Node.t option
(** The first node (document order) carrying this label. *)

(** {1 Geometry (§3.2)} *)

val parent : t -> Ordpath.t -> Node.t option
val children : t -> Ordpath.t -> Node.t list
(** Child nodes, document order.  Skips each child's subtree with one
    O(log n) search past it (small subtrees are stepped over in place),
    so a child step costs O(children · log n) however large the subtrees
    below; {!last_child} and the sibling axes build on it.  On a store
    with orphans it answers exactly the identifiers whose ordpath parent
    is the given node. *)

val element_children : t -> Ordpath.t -> Node.t list
(** Children that are not attribute nodes. *)

val attributes : t -> Ordpath.t -> Node.t list
val last_child : t -> Ordpath.t -> Node.t option
val descendants : t -> Ordpath.t -> Node.t list
(** Strict descendants, document order. *)

val descendant_or_self : t -> Ordpath.t -> Node.t list

val descendants_seq : t -> Ordpath.t -> Node.t Seq.t
(** {!descendants} as a lazy sequence — the contiguous ordpath run is
    consumed without allocating a list (hot traversal paths fold over
    this). *)

val descendant_or_self_seq : t -> Ordpath.t -> Node.t Seq.t
val ancestors : t -> Ordpath.t -> Node.t list
(** Strict ancestors, nearest first (reverse document order, the XPath
    [ancestor] axis direction). *)

val ancestor_or_self : t -> Ordpath.t -> Node.t list
val following_siblings : t -> Ordpath.t -> Node.t list
val preceding_siblings : t -> Ordpath.t -> Node.t list
(** Nearest first (reverse document order). *)

val following : t -> Ordpath.t -> Node.t list
(** Nodes after the subtree of the given node in document order,
    excluding descendants and attributes of ancestors. *)

val preceding : t -> Ordpath.t -> Node.t list
(** Nodes wholly before the given node, excluding ancestors; nearest
    first. *)

val is_child : t -> child:Ordpath.t -> Ordpath.t -> bool
val is_descendant : t -> descendant:Ordpath.t -> Ordpath.t -> bool

val string_value : t -> Ordpath.t -> string
(** Concatenation of the labels of all text descendants (XPath string
    value); for a text node, its own label. *)

(** {1 Updates}

    These are the raw single-node/subtree mutators the XUpdate layer is
    built on.  They never renumber existing nodes. *)

val relabel : t -> Ordpath.t -> string -> t
(** Changes the label of a node, keeping its identifier and kind.
    Unknown identifiers are returned unchanged. *)

val add_node : t -> Node.t -> t
(** Inserts a node with a caller-chosen identifier, replacing any node
    already carrying it.  This is the raw primitive view derivation uses
    to copy source nodes (with their identifiers) into the view. *)

val add_subtree :
  t -> parent:Ordpath.t -> left:Ordpath.t option -> right:Ordpath.t option ->
  Tree.t -> t * Ordpath.t
(** [add_subtree t ~parent ~left ~right tree] inserts [tree] under
    [parent], strictly between siblings [left] and [right], allocating
    fresh persistent identifiers; returns the new database and the
    identifier of the inserted root.
    @raise Invalid_argument if [parent] is not in the database or the
    bounds are not its children. *)

val append_tree : t -> parent:Ordpath.t -> Tree.t -> t * Ordpath.t
(** [add_subtree] after the current last child. *)

val remove_subtree : t -> Ordpath.t -> t
(** Removes a node and all its descendants.  Removing the document node
    is ignored; unknown identifiers are ignored. *)

val to_tree : t -> Ordpath.t -> Tree.t option
(** Extracts the subtree rooted at a node as an un-numbered fragment. *)
