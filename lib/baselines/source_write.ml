module D = Xmldoc.Document
module Op = Xupdate.Op

type report = {
  op : Op.t;
  targets : Ordpath.t list;
  relabelled : Ordpath.t list;
  removed : Ordpath.t list;
  inserted : Ordpath.t list;
  denied : (Ordpath.t * Core.Privilege.t) list;
  skipped : (Ordpath.t * string) list;
}

type state = {
  doc : D.t;
  relabelled : Ordpath.t list;
  removed : Ordpath.t list;
  inserted : Ordpath.t list;
  denied : (Ordpath.t * Core.Privilege.t) list;
  skipped : (Ordpath.t * string) list;
}

let can_hold_children doc id =
  match D.kind doc id with
  | Some (Xmldoc.Node.Element | Xmldoc.Node.Document) -> true
  | _ -> false

let apply policy doc ~user op =
  let perm = Core.Perm.compute policy (Xmldoc.Flat.of_document doc) ~user in
  let holds = Core.Perm.holds perm in
  let vars = [ ("USER", Xpath.Value.Str user) ] in
  (* The defining flaw: selection on the source. *)
  let targets = Xpath.Eval.select (Xpath.Eval.env ~vars doc) (Op.path op) in
  let st =
    { doc; relabelled = []; removed = []; inserted = []; denied = []; skipped = [] }
  in
  let relabel st id new_label =
    if not (holds Core.Privilege.Update id) then
      { st with denied = (id, Core.Privilege.Update) :: st.denied }
    else
      match D.kind st.doc id with
      | Some Xmldoc.Node.Document | None ->
        { st with skipped = (id, "document node") :: st.skipped }
      | Some _ ->
        { st with doc = D.relabel st.doc id new_label;
                  relabelled = id :: st.relabelled }
  in
  let insert st target content where =
    (* The baseline instantiates content on the SOURCE: a value-of can
       embed data the user cannot read — another face of the §2.2
       leak. *)
    let tree =
      Xupdate.Content.instantiate ~vars
        (Xpath.Source.of_document st.doc) ~context:target content
    in
    match where with
    | `Append ->
      if not (holds Core.Privilege.Insert target) then
        { st with denied = (target, Core.Privilege.Insert) :: st.denied }
      else if not (can_hold_children st.doc target) then
        { st with skipped = (target, "not an element") :: st.skipped }
      else
        let doc, id = D.append_tree st.doc ~parent:target tree in
        { st with doc; inserted = id :: st.inserted }
    | `Before | `After ->
      (match Ordpath.parent target with
       | None -> { st with skipped = (target, "document node") :: st.skipped }
       | Some parent ->
         if not (holds Core.Privilege.Insert parent) then
           { st with denied = (parent, Core.Privilege.Insert) :: st.denied }
         else
           let siblings =
             List.map (fun (n : Xmldoc.Node.t) -> n.id)
               (D.children st.doc parent)
           in
           let rec bounds prev = function
             | [] -> None
             | s :: rest when Ordpath.equal s target ->
               if where = `Before then Some (prev, Some s)
               else
                 Some (Some s,
                       match rest with [] -> None | next :: _ -> Some next)
             | s :: rest -> bounds (Some s) rest
           in
           (match bounds None siblings with
            | None -> { st with skipped = (target, "target gone") :: st.skipped }
            | Some (left, right) ->
              let doc, id = D.add_subtree st.doc ~parent ~left ~right tree in
              { st with doc; inserted = id :: st.inserted }))
  in
  let st =
    match op with
    | Op.Rename { new_label; _ } ->
      List.fold_left (fun st t -> relabel st t new_label) st targets
    | Op.Update { new_label; _ } ->
      List.fold_left
        (fun st t ->
          List.fold_left
            (fun st (kid : Xmldoc.Node.t) -> relabel st kid.id new_label)
            st (D.children doc t))
        st targets
    | Op.Append { content; _ } ->
      List.fold_left (fun st t -> insert st t content `Append) st targets
    | Op.Insert_before { content; _ } ->
      List.fold_left (fun st t -> insert st t content `Before) st targets
    | Op.Insert_after { content; _ } ->
      List.fold_left (fun st t -> insert st t content `After) st targets
    | Op.Remove _ ->
      List.fold_left
        (fun st t ->
          if not (D.mem st.doc t) then st
          else if Ordpath.equal t Ordpath.document then
            { st with skipped = (t, "document node") :: st.skipped }
          else if not (holds Core.Privilege.Delete t) then
            { st with denied = (t, Core.Privilege.Delete) :: st.denied }
          else
            { st with doc = D.remove_subtree st.doc t;
                      removed = t :: st.removed })
        st targets
  in
  ( st.doc,
    {
      op;
      targets;
      relabelled = List.rev st.relabelled;
      removed = List.rev st.removed;
      inserted = List.rev st.inserted;
      denied = List.rev st.denied;
      skipped = List.rev st.skipped;
    } )

let probe_leaks (r : report) = r.targets <> []
