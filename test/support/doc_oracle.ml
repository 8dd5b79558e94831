module D = Xmldoc.Document

let children t id =
  List.filter
    (fun (n : Xmldoc.Node.t) -> Ordpath.is_child ~parent:id n.id)
    (D.descendants t id)

let last_child t id =
  match List.rev (children t id) with [] -> None | n :: _ -> Some n

let siblings t id =
  match Ordpath.parent id with None -> [] | Some pid -> children t pid

let following_siblings t id =
  List.filter
    (fun (n : Xmldoc.Node.t) -> Ordpath.compare n.id id > 0)
    (siblings t id)

let preceding_siblings t id =
  List.rev
    (List.filter
       (fun (n : Xmldoc.Node.t) -> Ordpath.compare n.id id < 0)
       (siblings t id))
