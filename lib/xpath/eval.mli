(** XPath 1.0 evaluation over a {!Xmldoc.Document}.  The logical reading is
    the paper's [xpath(p, n, v)] predicate (§3.4): [select doc p] is the set
    of nodes [n] addressed by path [p]. *)

type env = {
  src : Source.t;
  vars : (string * Value.t) list;
      (** variable bindings, e.g. [("USER", Str "robert")] for the
          [$USER] session variable of §4.3 *)
}

exception Error of string
(** Raised on type errors (e.g. a union of non-node-sets), unknown
    functions, or unbound variables. *)

val env : ?vars:(string * Value.t) list -> Xmldoc.Document.t -> env

val env_of_source : ?vars:(string * Value.t) list -> Source.t -> env
(** Evaluate against a virtual source (e.g. a lazily-filtered view). *)

val eval : env -> context:Ordpath.t -> Ast.expr -> Value.t
(** Evaluates with context size 1 and position 1. *)

val select : env -> Ast.expr -> Ordpath.t list
(** Evaluates an expression with the document node as context and returns
    the selected nodes in document order.

    [descendant-or-self::node()/child::NAME[p...]] (the expansion of
    [//NAME[p...]]) is evaluated as [descendant::NAME[p...]] when no
    predicate is positional, so it answers from the source's label index
    when there is one.  A predicate is non-positional when it is a path,
    union, comparison, [and]/[or], string literal or call to a boolean-
    or string-valued core function, and calls neither [position()] nor
    [last()] outside a nested predicate; [//a[1]] keeps its meaning, the
    first [a] child of each parent.
    @raise Error if the result is not a node-set. *)

val select_str : ?vars:(string * Value.t) list ->
  Xmldoc.Document.t -> string -> Ordpath.t list
(** Parses and selects in one call.
    @raise Parser.Error on syntax errors, [Error] on evaluation errors. *)

val matches : env -> Ast.expr -> Ordpath.t -> bool
(** [matches env path n]: is node [n] addressed by [path]?  (The
    [xpath(p, n, v)] test used by the access-control axioms.) *)

val matches_down : Source.t -> Ast.expr -> Ordpath.t -> bool
(** [matches_down src path n]: same membership test as {!matches}, but
    decided from [n]'s label and ancestor chain alone — no document
    enumeration.  Only defined on the {!Ast.is_downward} class; the
    incremental permission maintenance of [Core.Perm.update] relies on it
    to re-resolve rules inside an updated subtree.
    @raise Error if [path] is not downward. *)
