module D = Xmldoc.Document

(* Document order visits parents before children, so one fold implements
   the recursive axioms. *)
let derive source perm =
  D.fold
    (fun (n : Xmldoc.Node.t) view ->
      if n.kind = Xmldoc.Node.Document then view (* axiom 15 *)
      else
        let parent_selected =
          match Ordpath.parent n.id with
          | None -> false
          | Some pid -> D.mem view pid
        in
        if not parent_selected then view
        else if Core.Perm.holds perm Core.Privilege.Read n.id then
          D.add_node view n (* axiom 16 *)
        else if Core.Perm.holds perm Core.Privilege.Position n.id then
          D.add_node view { n with label = Core.View.restricted } (* axiom 17 *)
        else view)
    source D.empty

let visibility flat source perm =
  let view = derive source perm in
  Bytes.init (Xmldoc.Flat.size flat) (fun i ->
      let id = Xmldoc.Flat.id flat i in
      if not (D.mem view id) then '\000'
      else if
        Ordpath.equal id Ordpath.document
        || Core.Perm.holds perm Core.Privilege.Read id
      then '\001'
      else '\002')
