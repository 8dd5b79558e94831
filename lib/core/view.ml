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

(* Delta-aware re-derivation on the node map, for staged documents that
   have no snapshot: outside the affected range neither the source facts
   nor (for downward policies) the permissions changed, so the old view
   is already correct there.  Inside the range the old entries are
   dropped and axioms 15-17 re-run against the new source; because
   visibility is inherited top-down and the range is closed under
   descendants, the patched prefix is always available when a node asks
   whether its parent is selected. *)
let patch source ~view perm delta =
  match delta with
  | Delta.All -> derive (Xmldoc.Flat.of_document source) perm
  | Delta.Local [] -> view
  | Delta.Local roots ->
    let pruned = List.fold_left D.remove_subtree view roots in
    List.fold_left
      (fun acc root ->
        Seq.fold_left
          (fun acc (n : Xmldoc.Node.t) ->
            let parent_selected =
              match Ordpath.parent n.id with
              | None -> false
              | Some pid -> D.mem acc pid
            in
            if not parent_selected then acc
            else if Perm.holds perm Privilege.Read n.id then D.add_node acc n
            else if Perm.holds perm Privilege.Position n.id then
              D.add_node acc { n with Xmldoc.Node.label = restricted }
            else acc)
          acc
          (D.descendant_or_self_seq source root))
      pruned roots

let is_restricted view id =
  match D.label view id with
  | Some l -> String.equal l restricted
  | None -> false

let visible_count view = D.size view - 1
