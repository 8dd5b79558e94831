type t = {
  subjects : Subject.t;
  rules : Rule.t list;  (* ascending priority *)
}

let empty = { subjects = Subject.empty; rules = [] }

let check_distinct rules =
  let sorted =
    List.sort (fun (a : Rule.t) b -> Int.compare a.priority b.priority) rules
  in
  let rec dup = function
    | (a : Rule.t) :: (b : Rule.t) :: _ when a.priority = b.priority ->
      invalid_arg
        (Printf.sprintf "Policy: two rules share priority %d" a.priority)
    | _ :: rest -> dup rest
    | [] -> ()
  in
  dup sorted;
  sorted

let v subjects rules = { subjects; rules = check_distinct rules }

let subjects t = t.subjects
let rules t = t.rules
let with_subjects t subjects = { t with subjects }

let next_priority t =
  1 + List.fold_left (fun m (r : Rule.t) -> max m r.priority) 0 t.rules

let add_rule t (r : Rule.t) =
  if not (Subject.mem t.subjects r.subject) then
    raise (Subject.Unknown_subject r.subject);
  { t with rules = check_distinct (r :: t.rules) }

let grant t privilege ~path ~subject =
  add_rule t
    (Rule.accept privilege ~path ~subject ~priority:(next_priority t))

let deny t privilege ~path ~subject =
  add_rule t (Rule.deny privilege ~path ~subject ~priority:(next_priority t))

let revoke t ~priority =
  { t with rules = List.filter (fun (r : Rule.t) -> r.priority <> priority) t.rules }

let rule_with_priority t ~priority =
  List.find_opt (fun (r : Rule.t) -> r.priority = priority) t.rules

let add_isa t ~sub ~super =
  { t with subjects = Subject.add_isa t.subjects ~sub ~super }

let remove_isa t ~sub ~super =
  { t with subjects = Subject.remove_isa t.subjects ~sub ~super }

(* One ancestor closure, shared by every rule. *)
let rules_for t ~user =
  let ancestors = Subject.ancestors t.subjects user in
  List.filter (fun (r : Rule.t) -> List.mem r.subject ancestors) t.rules

(* Rule index.  Bitsets over rule positions (ascending priority): the
   rules naming each subject are precomputed, and a user's applicable
   set is the union of its ancestors' — one closure, whatever the number
   of rules. *)
module StrMap = Map.Make (String)

type applicable = { bits : Bytes.t; local : bool }

type index = {
  policy : t;
  by_position : Rule.t array;
  matcher : int Xpath.Compile.shared option;
      (* the automaton with its one determinisation run: every commit's
         delta match takes its turn on it *)
  nonlocal : Bytes.t;  (* positions of the non-downward rules *)
  naming : Bytes.t StrMap.t;  (* subject -> positions of its own rules *)
}

let bitset n = Bytes.make ((n + 7) lsr 3) '\000'

let byte b j = Char.code (Bytes.unsafe_get b j)

let set_bit b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j (Char.unsafe_chr (byte b j lor (1 lsl (i land 7))))

let mem (a : applicable) i = byte a.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let disjoint a b =
  let rec go j = j < 0 || (byte a j land byte b j = 0 && go (j - 1)) in
  go (Bytes.length a - 1)

let index t =
  let by_position = Array.of_list t.rules in
  let n = Array.length by_position in
  let nonlocal = bitset n in
  let naming = ref StrMap.empty and downward = ref [] in
  Array.iteri
    (fun i (r : Rule.t) ->
      if Xpath.Ast.is_downward r.path then downward := (i, r.path) :: !downward
      else set_bit nonlocal i;
      let b =
        match StrMap.find_opt r.subject !naming with
        | Some b -> b
        | None ->
          let b = bitset n in
          naming := StrMap.add r.subject b !naming;
          b
      in
      set_bit b i)
    by_position;
  let matcher =
    match !downward with
    | [] -> None
    | paths -> Some (Xpath.Compile.share (Xpath.Compile.compile (List.rev paths)))
  in
  { policy = t; by_position; matcher; nonlocal; naming = !naming }

let local (a : applicable) = a.local
let indexed idx = idx.policy
let matcher idx = idx.matcher
let rule_at idx i = idx.by_position.(i)

let applicable idx ~user =
  let bits = bitset (Array.length idx.by_position) in
  List.iter
    (fun s ->
      match StrMap.find_opt s idx.naming with
      | Some own ->
        for j = 0 to Bytes.length own - 1 do
          Bytes.unsafe_set bits j (Char.unsafe_chr (byte bits j lor byte own j))
        done
      | None -> ())
    (Subject.ancestors idx.policy.subjects user);
  { bits; local = disjoint bits idx.nonlocal }

let pp fmt t =
  Subject.pp fmt t.subjects;
  List.iter (fun r -> Format.fprintf fmt "%a@." Rule.pp r) t.rules
