type decision = Accept | Deny

type t = {
  decision : decision;
  privilege : Privilege.t;
  path : Xpath.Ast.expr;
  path_src : string;
  subject : string;
  priority : int;
  notation : string;
}

let decision_to_string = function Accept -> "accept" | Deny -> "deny"

let v decision privilege ~path ~subject ~priority =
  {
    decision;
    privilege;
    path = Xpath.Parser.parse_path path;
    path_src = path;
    subject;
    priority;
    notation =
      Printf.sprintf "rule(%s, %s, %s, %s, %d)" (decision_to_string decision)
        (Privilege.to_string privilege) path subject priority;
  }

let accept privilege ~path ~subject ~priority =
  v Accept privilege ~path ~subject ~priority

let deny privilege ~path ~subject ~priority =
  v Deny privilege ~path ~subject ~priority

let equal a b =
  a.decision = b.decision
  && Privilege.equal a.privilege b.privilege
  && String.equal a.path_src b.path_src
  && String.equal a.subject b.subject
  && a.priority = b.priority

let pp fmt t = Format.pp_print_string fmt t.notation

let rec expr_uses_user (e : Xpath.Ast.expr) =
  let open Xpath.Ast in
  match e with
  | Var "USER" -> true
  | Var _ | Literal _ | Number _ -> false
  | Or (a, b) | And (a, b) | Cmp (_, a, b) | Arith (_, a, b) | Union (a, b) ->
    expr_uses_user a || expr_uses_user b
  | Neg a -> expr_uses_user a
  | Call (_, args) -> List.exists expr_uses_user args
  | Path p -> path_uses_user p
  | Filter (a, preds, steps) ->
    expr_uses_user a
    || List.exists expr_uses_user preds
    || List.exists step_uses_user steps

and path_uses_user (p : Xpath.Ast.path) = List.exists step_uses_user p.steps
and step_uses_user (s : Xpath.Ast.step) = List.exists expr_uses_user s.preds

let uses_user_variable t = expr_uses_user t.path
