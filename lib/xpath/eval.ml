open Ast

type env = {
  src : Source.t;
  vars : (string * Value.t) list;
}

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let env_of_source ?(vars = []) src = { src; vars }
let env ?vars doc = env_of_source ?vars (Source.of_document doc)

type context = {
  node : Ordpath.t;
  position : int;
  size : int;
}

(* The store keeps attribute nodes as children of their element, but in
   the XPath data model attributes (and their text values) are reachable
   only through the [attribute] axis, so the tree axes filter them out.
   An attribute's only children are text nodes ({!Xmldoc.Invariants}), so
   only a text candidate needs its parent looked up. *)
let in_tree src (n : Xmldoc.Node.t) =
  match n.kind with
  | Xmldoc.Node.Attribute -> false
  | Xmldoc.Node.Text -> (
    match src.Source.parent n.id with
    | Some p -> p.kind <> Xmldoc.Node.Attribute
    | None -> true)
  | Xmldoc.Node.Document | Xmldoc.Node.Element | Xmldoc.Node.Comment -> true

(* Axis enumeration, in axis order (reverse axes nearest-first). *)
let axis_nodes env axis id : Xmldoc.Node.t list =
  let src = env.src in
  let tree = List.filter (in_tree src) in
  match axis with
  | Child -> tree (src.Source.children id)
  | Descendant -> tree (src.Source.descendants id)
  | Descendant_or_self -> tree (src.Source.descendant_or_self id)
  | Parent -> (match src.Source.parent id with None -> [] | Some n -> [ n ])
  | Ancestor -> src.Source.ancestors id
  | Ancestor_or_self -> src.Source.ancestor_or_self id
  | Following_sibling -> tree (src.Source.following_siblings id)
  | Preceding_sibling -> tree (src.Source.preceding_siblings id)
  | Following -> tree (src.Source.following id)
  | Preceding -> tree (src.Source.preceding id)
  | Self -> (match src.Source.find id with None -> [] | Some n -> [ n ])
  | Attribute -> src.Source.attributes id

let test_matches axis (test : node_test) (n : Xmldoc.Node.t) =
  let principal_kind =
    match axis with Attribute -> Xmldoc.Node.Attribute | _ -> Xmldoc.Node.Element
  in
  match test with
  | Node_test -> true
  | Text_test -> n.kind = Xmldoc.Node.Text
  | Comment_test -> n.kind = Xmldoc.Node.Comment
  | Star -> n.kind = principal_kind
  | Name name -> n.kind = principal_kind && String.equal n.label name

(* The rewrite guard of [eval_steps]: can a predicate's outcome depend on
   the context position or size?  A number-valued predicate is compared
   with the position ([//a[1]]), and only [position()] and [last()] read
   position or size; a predicate nested in a step or a filter binds its
   own context, so calls inside it do not count.  Anything that might
   evaluate to a number -- a number literal, arithmetic, negation, a
   variable, a numeric or unknown function -- counts as positional. *)
let non_numeric_functions =
  [ "boolean"; "not"; "true"; "false"; "starts-with"; "contains"; "string";
    "concat"; "substring-before"; "substring-after"; "substring";
    "normalize-space"; "translate"; "name"; "local-name" ]

let rec reads_position = function
  | Call (("position" | "last"), _) -> true
  | Call (_, args) -> List.exists reads_position args
  | Or (a, b) | And (a, b) | Cmp (_, a, b) | Arith (_, a, b) | Union (a, b) ->
    reads_position a || reads_position b
  | Neg e | Filter (e, _, _) -> reads_position e
  | Path _ | Literal _ | Number _ | Var _ -> false

let positional pred =
  reads_position pred
  ||
  match pred with
  | Path _ | Union _ | Filter _ | Cmp _ | And _ | Or _ | Literal _ -> false
  | Call (f, _) -> not (List.mem f non_numeric_functions)
  | Arith _ | Neg _ | Number _ | Var _ -> true

let rec eval_expr env ctx expr : Value.t =
  match expr with
  | Or (a, b) ->
    Value.Bool
      (Value.to_bool env.src (eval_expr env ctx a)
      || Value.to_bool env.src (eval_expr env ctx b))
  | And (a, b) ->
    Value.Bool
      (Value.to_bool env.src (eval_expr env ctx a)
      && Value.to_bool env.src (eval_expr env ctx b))
  | Cmp (op, a, b) ->
    Value.Bool
      (Value.compare_values env.src op (eval_expr env ctx a)
         (eval_expr env ctx b))
  | Arith (op, a, b) ->
    let x = Value.to_num env.src (eval_expr env ctx a) in
    let y = Value.to_num env.src (eval_expr env ctx b) in
    Value.Num
      (match op with
       | Add -> x +. y
       | Sub -> x -. y
       | Mul -> x *. y
       | Div -> x /. y
       | Mod -> Float.rem x y)
  | Neg e -> Value.Num (-.Value.to_num env.src (eval_expr env ctx e))
  | Union (a, b) ->
    let na = eval_nodes env ctx a and nb = eval_nodes env ctx b in
    Value.nodeset (na @ nb)
  | Literal s -> Value.Str s
  | Number f -> Value.Num f
  | Var v ->
    (match List.assoc_opt v env.vars with
     | Some value -> value
     | None -> fail "unbound variable $%s" v)
  | Call (f, args) -> eval_call env ctx f args
  | Path p -> Value.nodeset (eval_path env ctx p)
  | Filter (e, preds, steps) ->
    let base = eval_nodes env ctx e in
    (* Predicates on a filter expression number nodes in document order. *)
    let filtered =
      List.fold_left (fun ids pred -> filter_predicate env ids pred) base preds
    in
    if steps = [] then Value.nodeset filtered
    else
      Value.nodeset
        (List.concat_map (fun id -> eval_steps env id steps) filtered)

and eval_nodes env ctx e =
  match eval_expr env ctx e with
  | Value.Nodeset ns -> ns
  | v ->
    fail "expected a node-set but got %s"
      (Format.asprintf "%a" (Value.pp env.src) v)

and eval_path env ctx { absolute; steps } =
  let start = if absolute then Ordpath.document else ctx.node in
  eval_steps env start steps

and eval_steps env start steps =
  match steps with
  | [] -> [ start ]
  | { axis = Descendant_or_self; test = Node_test; preds = [] }
    :: ({ axis = Child; test = Name _; preds } as step)
    :: rest
    when not (List.exists positional preds) ->
    (* [//NAME[p]] without positional predicates: the NAME children of
       every descendant-or-self node are exactly the NAME descendants,
       and [p] sees no position or size, so one descendant step selects
       the same nodes -- from the label index when the source has one,
       instead of one child list per node. *)
    eval_steps env start ({ step with axis = Descendant } :: rest)
  | step :: rest ->
    let here = eval_step env start step in
    let next = List.concat_map (fun id -> eval_steps env id rest) here in
    List.sort_uniq Ordpath.compare next

and eval_step env start { axis; test; preds } =
  let candidates =
    (* Descendant name-tests answer from the source's per-label index:
       the index is in document order (= axis order for the downward
       axes), so predicate numbering is unaffected.  The subtree check
       reapplies the axis semantics the slow path gets from
       [axis_nodes]; an element is always [in_tree]. *)
    match axis, test with
    | (Descendant | Descendant_or_self), Name name ->
      let or_self = axis = Descendant_or_self in
      List.filter
        (fun (n : Xmldoc.Node.t) ->
          n.kind = Xmldoc.Node.Element
          && ((or_self && Ordpath.equal n.id start)
             || (not (Ordpath.equal n.id start)
                && Ordpath.is_ancestor ~ancestor:start n.id)))
        (env.src.Source.by_label name)
    | _ ->
      List.filter (test_matches axis test) (axis_nodes env axis start)
  in
  let ids = List.map (fun (n : Xmldoc.Node.t) -> n.id) candidates in
  (* Each predicate re-numbers the surviving nodes in axis order. *)
  List.fold_left
    (fun ids pred -> filter_predicate env ids pred)
    ids preds

and filter_predicate env ids pred =
  let size = List.length ids in
  List.filteri
    (fun i id ->
      let ctx = { node = id; position = i + 1; size } in
      match eval_expr env ctx pred with
      | Value.Num f -> f = float_of_int ctx.position
      | v -> Value.to_bool env.src v)
    ids

and eval_call env ctx f args =
  let doc = env.src in
  let arg i =
    match List.nth_opt args i with
    | Some e -> eval_expr env ctx e
    | None -> fail "%s: missing argument %d" f (i + 1)
  in
  let str i = Value.to_string doc (arg i) in
  let num i = Value.to_num doc (arg i) in
  let optional_nodeset_arg () =
    match args with
    | [] -> [ ctx.node ]
    | e :: _ ->
      (match eval_expr env ctx e with
       | Value.Nodeset ns -> ns
       | _ -> fail "%s: expected a node-set argument" f)
  in
  let arity n =
    if List.length args <> n then
      fail "%s: expected %d argument(s), got %d" f n (List.length args)
  in
  match f with
  | "last" ->
    arity 0;
    Value.Num (float_of_int ctx.size)
  | "position" ->
    arity 0;
    Value.Num (float_of_int ctx.position)
  | "count" ->
    arity 1;
    (match arg 0 with
     | Value.Nodeset ns -> Value.Num (float_of_int (List.length ns))
     | _ -> fail "count: expected a node-set")
  | "name" | "local-name" ->
    (match optional_nodeset_arg () with
     | [] -> Value.Str ""
     | id :: _ ->
       (match env.src.Source.find id with
        | Some { kind = Xmldoc.Node.Element | Xmldoc.Node.Attribute; label; _ }
          ->
          Value.Str label
        | Some _ | None -> Value.Str ""))
  | "string" ->
    if args = [] then Value.Str (Value.to_string doc (Value.nodeset [ ctx.node ]))
    else Value.Str (str 0)
  | "concat" ->
    if List.length args < 2 then fail "concat: expected at least 2 arguments";
    Value.Str (String.concat "" (List.mapi (fun i _ -> str i) args))
  | "starts-with" ->
    arity 2;
    let s = str 0 and prefix = str 1 in
    Value.Bool
      (String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix)
  | "contains" ->
    arity 2;
    let s = str 0 and sub = str 1 in
    let n = String.length s and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
    Value.Bool (m = 0 || scan 0)
  | "substring-before" ->
    arity 2;
    let s = str 0 and sep = str 1 in
    let n = String.length s and m = String.length sep in
    let rec scan i =
      if i + m > n then None
      else if String.sub s i m = sep then Some i
      else scan (i + 1)
    in
    Value.Str
      (if m = 0 then ""
       else match scan 0 with None -> "" | Some i -> String.sub s 0 i)
  | "substring-after" ->
    arity 2;
    let s = str 0 and sep = str 1 in
    let n = String.length s and m = String.length sep in
    let rec scan i =
      if i + m > n then None
      else if String.sub s i m = sep then Some (i + m)
      else scan (i + 1)
    in
    Value.Str
      (if m = 0 then s
       else match scan 0 with None -> "" | Some i -> String.sub s i (n - i))
  | "substring" ->
    let s = str 0 in
    let start = Float.round (num 1) in
    let len =
      if List.length args >= 3 then Float.round (num 2) else Float.infinity
    in
    let n = String.length s in
    let first = int_of_float (Float.max 1. start) in
    let last_excl =
      if Float.is_integer len || len = Float.infinity then
        let stop = start +. len in
        if stop > float_of_int n +. 1. then n + 1
        else if Float.is_nan stop || stop < 1. then first
        else int_of_float stop
      else first
    in
    if Float.is_nan start || first >= last_excl then Value.Str ""
    else Value.Str (String.sub s (first - 1) (last_excl - first))
  | "string-length" ->
    let s = if args = [] then Value.to_string doc (Value.nodeset [ ctx.node ]) else str 0 in
    Value.Num (float_of_int (String.length s))
  | "normalize-space" ->
    let s = if args = [] then Value.to_string doc (Value.nodeset [ ctx.node ]) else str 0 in
    let words =
      String.split_on_char ' '
        (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
      |> List.filter (fun w -> w <> "")
    in
    Value.Str (String.concat " " words)
  | "translate" ->
    arity 3;
    let s = str 0 and from = str 1 and into = str 2 in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match String.index_opt from c with
        | None -> Buffer.add_char buf c
        | Some i -> if i < String.length into then Buffer.add_char buf into.[i])
      s;
    Value.Str (Buffer.contents buf)
  | "boolean" ->
    arity 1;
    Value.Bool (Value.to_bool doc (arg 0))
  | "not" ->
    arity 1;
    Value.Bool (not (Value.to_bool doc (arg 0)))
  | "true" ->
    arity 0;
    Value.Bool true
  | "false" ->
    arity 0;
    Value.Bool false
  | "number" ->
    if args = [] then Value.Num (Value.to_num doc (Value.nodeset [ ctx.node ]))
    else Value.Num (num 0)
  | "sum" ->
    arity 1;
    (match arg 0 with
     | Value.Nodeset ns ->
       Value.Num
         (List.fold_left
            (fun acc id ->
              acc +. Value.number_of_string (env.src.Source.string_value id))
            0. ns)
     | _ -> fail "sum: expected a node-set")
  | "floor" ->
    arity 1;
    Value.Num (Float.floor (num 0))
  | "ceiling" ->
    arity 1;
    Value.Num (Float.ceil (num 0))
  | "round" ->
    arity 1;
    (* XPath rounds halves towards +infinity: floor(x + 0.5). *)
    let x = num 0 in
    Value.Num
      (if Float.is_nan x || Float.is_integer x then x
       else Float.floor (x +. 0.5))
  | _ -> fail "unknown function %s()" f

let eval env ~context expr =
  eval_expr env { node = context; position = 1; size = 1 } expr

let select env expr =
  match eval env ~context:Ordpath.document expr with
  | Value.Nodeset ns -> ns
  | v ->
    fail "expression does not select nodes: %s"
      (Format.asprintf "%a" (Value.pp env.src) v)

let select_str ?vars doc src = select (env ?vars doc) (Parser.parse src)

let matches env expr id =
  List.exists (Ordpath.equal id) (select env expr)

(* Per-node membership for the downward class ({!Ast.is_downward}),
   evaluated backwards over the reversed steps: the candidate's own label
   and ancestor chain decide, so the test never enumerates the document.
   Must agree with [select] membership on that class — mirrored details:
   [select] starts at the document node even for relative paths, and the
   tree axes (child/descendant) skip attribute nodes and their text
   children (the [in_tree] filter of [axis_nodes]). *)
let matches_down src expr id =
  let in_tree = in_tree src in
  (* [steps_match rev_steps id]: does [id] end a chain consuming all the
     steps, starting from the document node? *)
  let rec steps_match rev_steps id =
    match rev_steps with
    | [] -> Ordpath.equal id Ordpath.document
    | { axis; test; preds } :: rest ->
      if preds <> [] then fail "matches_down: path carries a predicate"
      else (
        match src.Source.find id with
        | None -> false
        | Some n ->
          test_matches axis test n
          &&
          let up_strict match_rest =
            let rec up = function
              | None -> false
              | Some a -> match_rest a || up (Ordpath.parent a)
            in
            up (Ordpath.parent id)
          in
          (match axis with
           | Self -> steps_match rest id
           | Child ->
             in_tree n
             && (match Ordpath.parent id with
                 | None -> false
                 | Some p -> steps_match rest p)
           | Attribute ->
             n.kind = Xmldoc.Node.Attribute
             && (match Ordpath.parent id with
                 | None -> false
                 | Some p -> steps_match rest p)
           | Descendant -> in_tree n && up_strict (steps_match rest)
           | Descendant_or_self ->
             in_tree n && (steps_match rest id || up_strict (steps_match rest))
           | Ancestor | Ancestor_or_self | Following | Following_sibling
           | Parent | Preceding | Preceding_sibling ->
             fail "matches_down: %s is not a downward axis"
               (Ast.axis_to_string axis)))
  in
  let rec expr_matches = function
    | Union (a, b) -> expr_matches a || expr_matches b
    | Path { steps; _ } -> steps_match (List.rev steps) id
    | e -> fail "matches_down: not a downward path: %s" (Ast.to_string e)
  in
  expr_matches expr
