type finding =
  | Dead_rule of Rule.t * string
  | Unreachable_grant of Rule.t * string
  | Idle_subject of string

module IntMap = Map.Make (Int)

let analyse policy doc =
  let subjects = Policy.subjects policy in
  let users = Subject.users subjects in
  let rules = Policy.rules policy in
  (* Walk every (user, node, privilege) decision once. *)
  let live = Hashtbl.create 16 in
  let reachable = Hashtbl.create 16 in
  let grants_something = Hashtbl.create 16 in
  let flat = Xmldoc.Flat.of_document doc in
  List.iter
    (fun user ->
      let perm = Perm.compute policy flat ~user in
      let view = View.derive flat perm in
      Xmldoc.Document.iter
        (fun (n : Xmldoc.Node.t) ->
          List.iter
            (fun priv ->
              match Perm.deciding_rule perm priv n.id with
              | None -> ()
              | Some r ->
                Hashtbl.replace live r.priority ();
                if r.decision = Rule.Accept && Privilege.is_read_side priv
                then begin
                  Hashtbl.replace grants_something r.priority ();
                  if Xmldoc.Document.mem view n.id then
                    Hashtbl.replace reachable r.priority ()
                end)
            Privilege.all)
        doc)
    users;
  let dead =
    List.filter_map
      (fun (r : Rule.t) ->
        if Hashtbl.mem live r.priority then None
        else
          let reason =
            if not (List.exists (fun u -> Subject.isa subjects u r.subject) users)
            then "no declared user is covered by its subject"
            else
              "it never decides a privilege for any user and node (empty \
               selection or always overridden by later rules)"
          in
          Some (Dead_rule (r, reason)))
      rules
  in
  let unreachable =
    List.filter_map
      (fun (r : Rule.t) ->
        if
          Hashtbl.mem grants_something r.priority
          && not (Hashtbl.mem reachable r.priority)
        then
          Some
            (Unreachable_grant
               ( r,
                 "every node it grants is pruned from the view by a hidden \
                  ancestor (axioms 16-17 require the parent selected)" ))
        else None)
      rules
  in
  let idle =
    List.filter_map
      (fun user ->
        if Policy.rules_for policy ~user = [] then Some (Idle_subject user)
        else None)
      users
  in
  dead @ unreachable @ idle

let to_string = function
  | Dead_rule (r, why) ->
    Format.asprintf "dead rule: %a — %s" Rule.pp r why
  | Unreachable_grant (r, why) ->
    Format.asprintf "unreachable grant: %a — %s" Rule.pp r why
  | Idle_subject s -> Printf.sprintf "idle subject: no rule applies to %s" s

let report policy doc =
  String.concat "\n" (List.map to_string (analyse policy doc))
