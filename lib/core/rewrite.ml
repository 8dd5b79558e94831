(* The virtual-security-view read path (§5's "applying filters reflecting
   the user privileges on the queries"): instead of materialising a view
   per user, a downward query is compiled to its automaton once and run
   over the *shared* source in product with the user's visibility
   predicate — the view callback prunes hidden subtrees wholesale and
   feeds the automaton the view labels (RESTRICTED under position-only),
   so name tests can neither match what the user must not read nor miss
   what the view renames.  On a snapshot, a query whose every branch
   names a label runs only over that label's rows (or their subtrees)
   when the posting lists are short enough (Compile.anchor): a view
   node's visibility depends only on its ancestor chain, and so does a
   downward match, so re-threading the automaton down each candidate's
   chain decides it exactly as the full scan would.  Queries outside
   the downward fragment fall back to the general evaluator over the
   Lazy_view source, which enforces the same axioms per axis call on
   the same visibility oracle.  Both paths return exactly what
   evaluating the query on the View.derive materialisation would — the
   property test/test_rewrite.ml pins down differentially. *)

let m_compiled =
  Obs.Metrics.counter Obs.Metrics.default "rewrite_compiled_total"
    ~help:"Queries answered by the compiled rewrite (automaton x visibility)"

let m_anchored =
  Obs.Metrics.counter Obs.Metrics.default "rewrite_anchored_total"
    ~help:"Compiled queries answered from label-index candidates"

let m_fallback =
  Obs.Metrics.counter Obs.Metrics.default "rewrite_fallback_total"
    ~help:"Queries outside the downward fragment served via the lazy view"

type t = {
  expr : Xpath.Ast.expr;
  compiled : unit Xpath.Compile.t option;
  names_restricted : bool;
      (* a name test asks for RESTRICTED: position-only nodes carry that
         name only in the view, and the posting lists hold source
         labels, so such a query never anchors *)
}

let rec names_restricted (e : Xpath.Ast.expr) =
  match e with
  | Xpath.Ast.Union (a, b) -> names_restricted a || names_restricted b
  | Xpath.Ast.Path p ->
    List.exists
      (fun (s : Xpath.Ast.step) -> s.test = Xpath.Ast.Name View.restricted)
      p.steps
  | _ -> false

(* Downward queries can never mention $USER (Var is outside the
   fragment), so one compiled plan is sound for every user — and, a
   fortiori, shareable across a whole server. *)
let plan expr =
  let compiled =
    if Xpath.Ast.is_downward expr then
      Some (Xpath.Compile.compile [ ((), expr) ])
    else None
  in
  { expr; compiled; names_restricted = names_restricted expr }

let plan_str src = plan (Xpath.Parser.parse_path src)

let compiled t = Option.is_some t.compiled
let expr t = t.expr

let anchorable t fl =
  match t.compiled with
  | Some auto when not t.names_restricted -> Xpath.Compile.anchor auto fl
  | Some _ | None -> None

let anchor t fl =
  match anchorable t fl with
  | Some a when Xpath.Compile.anchor_pays fl a -> Some a
  | Some _ | None -> None

let select ?vars ?stats t lv =
  match t.compiled with
  | Some auto ->
    Obs.Metrics.inc m_compiled;
    Obs.Trace.with_span "rewrite.select" (fun () ->
        let f acc (n : Xmldoc.Node.t) _ = n.id :: acc in
        let fl, vis = Lazy_view.flat_visibility lv in
        (* Per-epoch byte oracle: visibility is an array read, and only
           position-only nodes allocate a remapped copy. *)
        let view ix (n : Xmldoc.Node.t) =
          match Bytes.unsafe_get vis ix with
          | '\000' -> None
          | '\001' -> Some n
          | _ -> Some { n with label = View.restricted }
        in
        List.rev
          (match anchor t fl with
           | Some a ->
             Obs.Metrics.inc m_anchored;
             Option.iter
               (fun (s : Xpath.Compile.stats) ->
                 s.anchors <- Xpath.Compile.anchor_names a)
               stats;
             (* A candidate shown as RESTRICTED does not carry its
                posting-list label in the view. *)
             let shown ix = Bytes.unsafe_get vis ix = '\001' in
             Xpath.Compile.fold_ranges_flat ?stats ~view auto fl
               ~ranges:(Xpath.Compile.anchor_ranges ~shown fl a)
               ~init:[] ~f
           | None ->
             Xpath.Compile.fold_view_flat ?stats auto fl ~view ~init:[] ~f))
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
