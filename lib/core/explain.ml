type visibility =
  | Visible of Rule.t
  | Restricted of { position : Rule.t; read_denied : Rule.t option }
  | Hidden of { denied_by : Rule.t option }
  | Pruned of Ordpath.t
  | No_such_node

let would_be_selected perm id =
  Perm.holds perm Privilege.Read id || Perm.holds perm Privilege.Position id

let visibility session id =
  let source = Session.source session in
  let perm = Session.perm session in
  if not (Xmldoc.Document.mem source id) then No_such_node
  else if Ordpath.equal id Ordpath.document then
    (* Axiom 15: the document node is always in the view. *)
    Visible
      (Rule.v Rule.Accept Privilege.Read ~path:"/" ~subject:"*" ~priority:0)
  else
    (* Find the outermost hidden ancestor, if any. *)
    let rec outermost_hidden acc = function
      | [] -> acc
      | (n : Xmldoc.Node.t) :: rest ->
        if n.kind = Xmldoc.Node.Document then outermost_hidden acc rest
        else if would_be_selected perm n.id then outermost_hidden acc rest
        else outermost_hidden (Some n.id) rest
    in
    match
      outermost_hidden None (Xmldoc.Document.ancestors source id)
    with
    | Some ancestor -> if would_be_selected perm id then Pruned ancestor
      else Hidden { denied_by = Perm.deciding_rule perm Privilege.Read id }
    | None ->
      if Perm.holds perm Privilege.Read id then
        Visible (Option.get (Perm.deciding_rule perm Privilege.Read id))
      else if Perm.holds perm Privilege.Position id then
        Restricted
          {
            position = Option.get (Perm.deciding_rule perm Privilege.Position id);
            read_denied = Perm.deciding_rule perm Privilege.Read id;
          }
      else Hidden { denied_by = Perm.deciding_rule perm Privilege.Read id }

let privilege session priv id =
  let perm = Session.perm session in
  match Perm.deciding_rule perm priv id with
  | Some r when r.Rule.decision = Rule.Accept ->
    Printf.sprintf "%s granted by %s" (Privilege.to_string priv)
      r.Rule.notation
  | Some r ->
    Printf.sprintf "%s denied by %s" (Privilege.to_string priv)
      r.Rule.notation
  | None ->
    Printf.sprintf "%s denied: no applicable rule (closed world)"
      (Privilege.to_string priv)

let describe session id =
  let buf = Buffer.create 128 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match visibility session id with
   | No_such_node -> line "node %s does not exist" (Ordpath.to_string id)
   | Visible r ->
     line "node %s is visible (%s)" (Ordpath.to_string id) r.Rule.notation
   | Restricted { position; read_denied } ->
     line "node %s is shown RESTRICTED (position via %s%s)"
       (Ordpath.to_string id) position.Rule.notation
       (match read_denied with
        | Some r -> "; read denied by " ^ r.Rule.notation
        | None -> "; no read rule applies")
   | Hidden { denied_by } ->
     line "node %s is hidden%s" (Ordpath.to_string id)
       (match denied_by with
        | Some r -> " (read denied by " ^ r.Rule.notation ^ ")"
        | None -> " (no applicable read rule: closed world)")
   | Pruned ancestor ->
     line "node %s is pruned: ancestor %s is hidden" (Ordpath.to_string id)
       (Ordpath.to_string ancestor));
  List.iter
    (fun priv -> line "  %s" (privilege session priv id))
    Privilege.all;
  Buffer.contents buf
