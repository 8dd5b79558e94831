(* The virtual-security-view read path (§5's "applying filters reflecting
   the user privileges on the queries"): instead of materialising a view
   per user, a downward query is compiled to its automaton once and run
   over the *shared* source in product with the user's visibility
   predicate — Compile.fold_view prunes hidden subtrees wholesale and
   feeds the automaton the view labels (RESTRICTED under position-only),
   so name tests can neither match what the user must not read nor miss
   what the view renames.  Queries outside the downward fragment fall
   back to the general evaluator over the Lazy_view source, which
   enforces the same axioms per axis call (on the snapshot's visibility
   oracle when there is one).  Both paths return exactly what
   evaluating the query on the View.derive materialisation would — the
   property test/test_rewrite.ml pins down differentially. *)

let m_compiled =
  Obs.Metrics.counter Obs.Metrics.default "rewrite_compiled_total"
    ~help:"Queries answered by the compiled rewrite (automaton x visibility)"

let m_fallback =
  Obs.Metrics.counter Obs.Metrics.default "rewrite_fallback_total"
    ~help:"Queries outside the downward fragment served via the lazy view"

type t = {
  expr : Xpath.Ast.expr;
  compiled : unit Xpath.Compile.t option;
}

(* Downward queries can never mention $USER (Var is outside the
   fragment), so one compiled plan is sound for every user — and, a
   fortiori, shareable across a whole server. *)
let plan expr =
  let compiled =
    if Xpath.Ast.is_downward expr then
      Some (Xpath.Compile.compile [ ((), expr) ])
    else None
  in
  { expr; compiled }

let plan_str src = plan (Xpath.Parser.parse_path src)

let compiled t = Option.is_some t.compiled
let expr t = t.expr

let select ?vars ?stats t lv =
  match t.compiled with
  | Some auto ->
    Obs.Metrics.inc m_compiled;
    Obs.Trace.with_span "rewrite.select" (fun () ->
        let f acc (n : Xmldoc.Node.t) _ = n.id :: acc in
        List.rev
          (match Lazy_view.flat_visibility lv with
           | Some (fl, vis) ->
             (* Per-epoch byte oracle: visibility is an array read, and
                only position-only nodes allocate a remapped copy. *)
             let view ix (n : Xmldoc.Node.t) =
               match Bytes.unsafe_get vis ix with
               | '\000' -> None
               | '\001' -> Some n
               | _ -> Some { n with label = View.restricted }
             in
             Xpath.Compile.fold_view_flat ?stats auto fl ~view ~init:[] ~f
           | None ->
             let view (n : Xmldoc.Node.t) =
               if Lazy_view.visible lv n.id then Some (Lazy_view.remap lv n)
               else None
             in
             Xpath.Compile.fold_view ?stats auto (Lazy_view.doc lv) ~view
               ~init:[] ~f))
  | None ->
    Obs.Metrics.inc m_fallback;
    (* No automaton on this path: "visited" counts the nodes the view's
       source hands to the evaluator. *)
    let src = Lazy_view.source lv in
    let src =
      match stats with
      | Some s ->
        Xpath.Source.counting
          (fun k -> s.Xpath.Compile.visited <- s.Xpath.Compile.visited + k)
          src
      | None -> src
    in
    Xpath.Eval.select (Xpath.Eval.env_of_source ?vars src) t.expr

let select_str ?vars lv src = select ?vars (plan_str src) lv
