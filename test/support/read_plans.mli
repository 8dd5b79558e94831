(** Both snapshot plans of a compiled query, called directly rather than
    through [Core.Rewrite.select]'s cost rule, for the differential
    suites. *)

val run :
  Xpath.Ast.expr -> Core.Lazy_view.t -> string list * string list option
(** [run expr lv] is the scan of every visible row
    ({!Xpath.Compile.fold_view_flat}) and — when the query can anchor
    ({!Core.Rewrite.anchorable}), whatever the cost rule would choose —
    the run over its label-index candidates
    ({!Xpath.Compile.fold_ranges_flat}), both over [lv]'s snapshot and
    visibility oracle; answers as ordpath strings in the order the folds
    produce them.  [expr] must compile and [lv] must hold a snapshot. *)
