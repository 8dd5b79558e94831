type t =
  | Local of Ordpath.t list
  | All

let empty = Local []
let all = All

let of_roots ids =
  if List.exists (Ordpath.equal Ordpath.document) ids then All
  else Local (Ordpath.outermost ids)

let union a b =
  match (a, b) with
  | All, _ | _, All -> All
  | Local xs, Local ys -> of_roots (xs @ ys)

let is_empty = function Local [] -> true | Local _ | All -> false

let affects t id =
  match t with
  | All -> true
  | Local roots ->
    List.exists (fun r -> Ordpath.is_ancestor_or_self ~ancestor:r id) roots

let roots = function Local rs -> Some rs | All -> None

let local_expr = Xpath.Ast.is_downward
let local_rules rules =
  List.for_all (fun (r : Rule.t) -> local_expr r.path) rules

let pp fmt = function
  | All -> Format.pp_print_string fmt "all"
  | Local [] -> Format.pp_print_string fmt "empty"
  | Local roots ->
    Format.fprintf fmt "subtrees{%s}"
      (String.concat ", " (List.map Ordpath.to_string roots))
