module D = Xmldoc.Document

let restricted = "RESTRICTED"

(* One merge-scan decides every node (see {!Perm.flat_visibility});
   building the view is then a straight sweep over the selected indexes
   — index 0 is the document node [D.empty] already holds. *)
let derive fl perm =
  let vis = Perm.flat_visibility perm fl in
  let view = ref D.empty in
  for i = 1 to Xmldoc.Flat.size fl - 1 do
    match Bytes.unsafe_get vis i with
    | '\000' -> ()
    | '\001' -> view := D.add_node !view (Xmldoc.Flat.node fl i)
    | _ ->
      view :=
        D.add_node !view
          { (Xmldoc.Flat.node fl i) with Xmldoc.Node.label = restricted }
  done;
  !view

module Ids = Hashtbl.Make (struct
  type t = Ordpath.t

  let equal = Ordpath.equal
  let hash = Ordpath.hash
end)

(* The view over the node map, for staged documents that have no
   snapshot: every axis runs on the map and keeps the nodes axioms 15-17
   select.  A node's decision needs its parent's, and almost every axis
   meets parents first -- a child list is filtered under a shown parent,
   a document-order scan skips the subtree of each hidden node -- so a
   node costs one or two searches of the decision stores once, and a
   table lookup after; only an identifier that comes from elsewhere
   decides its ancestor chain.

   With [prior], a child list under a node outside the delta's subtrees
   comes off the earlier snapshot instead: the snapshot's child chain
   with each child's oracle byte, except the children that are delta
   roots, which come off the map.  Outside the subtrees the two
   documents agree node for node and, the rules being downward, so do
   the decisions, so each byte is still the child's decision.  The
   bytes go into the memo as well: the evaluator asks for the parent of
   every candidate of a child step, which decides the candidate, and on
   a list of a few hundred children those searches would cost more than
   the rest of the selection. *)
let source ?prior doc perm : Xpath.Source.t =
  let module N = Xmldoc.Node in
  let module F = Xmldoc.Flat in
  let memo = Ids.create 64 in
  (* '\000' hidden, '\001' shown, '\002' shown as RESTRICTED, for a node
     whose parent is shown. *)
  let own id =
    match Ids.find_opt memo id with
    | Some b -> b
    | None ->
      let b =
        if Perm.holds perm Privilege.Read id then '\001'
        else if Perm.holds perm Privilege.Position id then '\002'
        else '\000'
      in
      Ids.add memo id b;
      b
  in
  let rec decide id =
    match Ids.find_opt memo id with
    | Some b -> b
    | None -> (
      match Ordpath.parent id with
      | None -> '\001' (* the document node: axiom 15 *)
      | Some pid ->
        if decide pid = '\000' then begin
          Ids.add memo id '\000';
          '\000'
        end
        else own id)
  in
  let shown_as (n : N.t) = function
    | '\002' -> Some { n with N.label = restricted }
    | '\001' -> Some n
    | _ -> None
  in
  (* The shown nodes among ones whose parents are shown. *)
  let keep ns = List.filter_map (fun (n : N.t) -> shown_as n (own n.id)) ns in
  let at id =
    match D.find doc id with
    | Some n -> Option.map (fun v -> (n, v)) (shown_as n (decide id))
    | None -> None
  in
  let on f id = match at id with Some (n, _) -> f n | None -> [] in
  let children =
    match prior with
    | None -> fun (n : N.t) -> keep (D.children doc n.id)
    | Some ((fl, vis), roots) -> (
      let is_root id = List.exists (Ordpath.equal id) roots in
      fun (n : N.t) ->
        match F.find_ix fl n.id with
        | Some ix
          when not
                 (List.exists
                    (fun r -> Ordpath.is_ancestor_or_self ~ancestor:r n.id)
                    roots) ->
          let rec kept acc c =
            if c < 0 then List.rev acc
            else
              let m = F.node fl c in
              let acc =
                if is_root m.id then acc
                else begin
                  let b = Bytes.unsafe_get vis c in
                  Ids.replace memo m.id b;
                  match shown_as m b with Some v -> v :: acc | None -> acc
                end
              in
              kept acc (F.next_sibling_ix fl c)
          in
          List.merge
            (fun (a : N.t) (b : N.t) -> Ordpath.compare a.id b.id)
            (kept [] (F.first_child_ix fl ix))
            (keep
               (List.filter_map
                  (fun r ->
                    if Ordpath.is_child ~parent:n.id r then D.find doc r
                    else None)
                  roots))
        | Some _ | None -> keep (D.children doc n.id))
  in
  let decided ns = List.filter_map (fun (m : N.t) -> shown_as m (decide m.id)) ns in
  (* Shown nodes of a document-order run below a shown node, skipping the
     subtree of each hidden node without deciding it. *)
  let scan seq =
    let rec go hidden acc seq =
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons ((n : N.t), rest) -> (
        match hidden with
        | Some h when Ordpath.is_ancestor ~ancestor:h n.id -> go hidden acc rest
        | Some _ | None -> (
          match shown_as n (own n.id) with
          | Some v -> go None (v :: acc) rest
          | None -> go (Some n.id) acc rest))
    in
    go None [] seq
  in
  let rec string_value buf ~start (n : N.t) =
    match n.kind with
    | N.Text -> Buffer.add_string buf n.label
    | N.Attribute when not (Ordpath.equal n.id start) -> ()
    | N.Attribute | N.Element | N.Document | N.Comment ->
      List.iter (string_value buf ~start) (children n)
  in
  {
    Xpath.Source.find = (fun id -> Option.map snd (at id));
    children = on children;
    parent =
      (fun id ->
        match at id with
        | Some (n, _) -> Option.bind (D.parent doc n.id) (fun p -> shown_as p (decide p.id))
        | None -> None);
    descendants = on (fun n -> scan (D.descendants_seq doc n.id));
    descendant_or_self =
      (fun id ->
        match at id with
        | Some (n, v) -> v :: scan (D.descendants_seq doc n.id)
        | None -> []);
    ancestors = on (fun n -> decided (D.ancestors doc n.id));
    ancestor_or_self =
      (fun id ->
        match at id with
        | Some (n, v) -> v :: decided (D.ancestors doc n.id)
        | None -> []);
    following_siblings = on (fun n -> keep (D.following_siblings doc n.id));
    preceding_siblings = on (fun n -> keep (D.preceding_siblings doc n.id));
    following = on (fun n -> scan (List.to_seq (D.following doc n.id)));
    preceding = on (fun n -> decided (D.preceding doc n.id));
    attributes = on (fun n -> keep (D.attributes doc n.id));
    string_value =
      (fun id ->
        match at id with
        | None -> ""
        | Some (_, v) ->
          let buf = Buffer.create 32 in
          string_value buf ~start:v.id v;
          Buffer.contents buf);
    (* Position-only nodes carry RESTRICTED only in the view, so that
       name needs a scan; any other name filters the label index down to
       nodes shown under their source label. *)
    by_label =
      (fun name ->
        if String.equal name restricted then
          List.filter
            (fun (n : N.t) -> String.equal n.label restricted)
            (scan (D.descendants_seq doc Ordpath.document))
        else
          List.filter (fun (n : N.t) -> decide n.id = '\001') (D.labelled doc name));
  }

let is_restricted view id =
  match D.label view id with
  | Some l -> String.equal l restricted
  | None -> false

let visible_count view = D.size view - 1
