type t = int list

let is_odd x = x land 1 <> 0
let is_even x = x land 1 = 0

let document = []
let root = [ 1 ]

(* A well-formed label is a sequence of levels, each level being zero or
   more even components followed by exactly one odd component. *)
let is_well_formed cs =
  let rec check = function
    | [] -> true
    | c :: rest -> if is_odd c then check rest else rest <> [] && check rest
  in
  check cs

let of_components cs =
  if is_well_formed cs then cs
  else invalid_arg "Ordpath.of_components: malformed label"

let to_components t = t

let rec compare a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> if x <> y then Int.compare x y else compare a' b'

let equal a b = compare a b = 0
let hash t = Hashtbl.hash t

let depth t = List.length (List.filter is_odd t)

(* The last level of a label is its trailing odd component together with
   the maximal run of even components immediately before it. *)
let parent = function
  | [] -> None
  | t ->
    let rec drop_evens = function
      | e :: rest when is_even e -> drop_evens rest
      | rest -> rest
    in
    (match List.rev t with
     | [] -> None
     | _last :: rev_rest -> Some (List.rev (drop_evens rev_rest)))

let rec is_prefix p t =
  match p, t with
  | [], _ -> true
  | _, [] -> false
  | x :: p', y :: t' -> x = y && is_prefix p' t'

(* One walk, no length passes: [p] is a strict prefix iff [p] runs out
   while [t] still has components. *)
let rec is_strict_prefix p t =
  match p, t with
  | [], _ :: _ -> true
  | _, [] -> false
  | x :: p', y :: t' -> x = y && is_strict_prefix p' t'

let is_ancestor ~ancestor t = is_strict_prefix ancestor t
let is_ancestor_or_self ~ancestor t = is_prefix ancestor t

let is_child ~parent:p t =
  match parent t with Some q -> equal p q | None -> false

let is_sibling a b =
  (not (equal a b))
  &&
  match parent a, parent b with
  | Some pa, Some pb -> equal pa pb
  | _ -> false

let next_odd_after x = if is_odd x then x + 2 else x + 1
let prev_odd_before x = if is_odd x then x - 2 else x - 1

(* [level_between left right] is a fresh level strictly between the sibling
   levels [left] and [right] (either bound may be absent).  Levels compare
   lexicographically; distinct valid levels never share an odd head, which
   the recursion relies on. *)
let rec level_between left right =
  match left, right with
  | None, None -> [ 1 ]
  | Some (ha :: _), None -> [ next_odd_after ha ]
  | None, Some (hb :: _) -> [ prev_odd_before hb ]
  | Some (ha :: ta), Some (hb :: tb) ->
    if ha = hb then begin
      assert (is_even ha);
      ha :: level_between (Some ta) (Some tb)
    end
    else if hb - ha >= 2 then begin
      let o = if is_odd (ha + 1) then ha + 1 else ha + 2 in
      if o < hb then [ o ] else (ha + 1) :: level_between None None
    end
    else begin
      (* hb = ha + 1 *)
      if is_odd ha then hb :: level_between None (Some tb)
      else ha :: level_between (Some ta) None
    end
  | Some [], _ | _, Some [] ->
    invalid_arg "Ordpath: empty level"

let strip_parent ~parent:p t =
  let rec strip p t =
    match p, t with
    | [], suffix -> suffix
    | x :: p', y :: t' when x = y -> strip p' t'
    | _ -> invalid_arg "Ordpath: not a child of the given parent"
  in
  strip p t

let child_under ~parent:p ~left ~right =
  let level_of bound =
    match bound with
    | None -> None
    | Some b ->
      if not (is_child ~parent:p b) then
        invalid_arg "Ordpath.child_under: bound is not a child of parent";
      Some (strip_parent ~parent:p b)
  in
  let ll = level_of left and rl = level_of right in
  (match ll, rl with
   | Some a, Some b when compare a b >= 0 ->
     invalid_arg "Ordpath.child_under: left >= right"
   | _ -> ());
  p @ level_between ll rl

let first_child p = p @ [ 1 ]

let append_after p ~last = child_under ~parent:p ~left:last ~right:None

let insert_before n =
  match parent n with
  | None -> invalid_arg "Ordpath.insert_before: document node"
  | Some p -> child_under ~parent:p ~left:None ~right:(Some n)

let between ~left ~right =
  if not (is_sibling left right) then
    invalid_arg "Ordpath.between: not siblings";
  match parent left with
  | None -> invalid_arg "Ordpath.between: document node"
  | Some p -> child_under ~parent:p ~left:(Some left) ~right:(Some right)

(* Sorted = document order, so a covering ancestor precedes the labels
   it covers; one left-to-right pass drops them. *)
let outermost ts =
  List.fold_left
    (fun acc t ->
      match acc with
      | prev :: _ when is_prefix prev t -> acc
      | _ -> t :: acc)
    []
    (List.sort_uniq compare ts)
  |> List.rev

let relationship a b =
  if equal a b then `Self
  else if is_strict_prefix b a then `Ancestor
  else if is_strict_prefix a b then `Descendant
  else if compare b a < 0 then `Preceding
  else `Following

let to_string = function
  | [] -> "/"
  | t -> String.concat "." (List.map string_of_int t)

let of_string s =
  if s = "/" then []
  else
    match String.split_on_char '.' s with
    | [] -> invalid_arg "Ordpath.of_string: empty"
    | parts ->
      let cs =
        List.map
          (fun p ->
            match int_of_string_opt p with
            | Some i -> i
            | None -> invalid_arg "Ordpath.of_string: bad component")
          parts
      in
      of_components cs

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Packed binary keys.

   Each component is encoded as one header byte plus a big-endian payload
   whose length the header determines, chosen so that byte-wise
   lexicographic comparison of concatenated codes coincides with
   component-wise comparison of labels:

   - non-negative [v] with minimal payload length [n] (1..7 bytes):
     header [0x80 + n], payload = big-endian [v];
   - negative [v] with minimal payload length [n]:
     header [0x80 - n], payload = big-endian [v + 2^(8n)].

   Negative headers (0x79..0x7F) sort below positive ones (0x81..0x87);
   within a sign, longer payloads mean larger magnitude and the headers
   order them accordingly.  Codes are prefix-free, so a label is a strict
   prefix of another iff its packed form is a strict string prefix. *)

let packed_component_max = (1 lsl 55) - 1

let payload_len v =
  (* minimal n in 1..7 with the payload fitting n bytes *)
  let u = if v >= 0 then v else -1 - v in
  let rec go n bound = if u < bound then n else go (n + 1) (bound lsl 8) in
  go 1 256

let pack t =
  let b = Buffer.create 16 in
  List.iter
    (fun v ->
      if v > packed_component_max || v < -packed_component_max then
        invalid_arg "Ordpath.pack: component out of range";
      let n = payload_len v in
      let u = if v >= 0 then v else v + (1 lsl (8 * n)) in
      Buffer.add_char b
        (Char.chr (if v >= 0 then 0x80 + n else 0x80 - n));
      for i = n - 1 downto 0 do
        Buffer.add_char b (Char.chr ((u lsr (8 * i)) land 0xff))
      done)
    t;
  Buffer.contents b

let unpack s =
  let len = String.length s in
  let rec go pos acc =
    if pos = len then List.rev acc
    else begin
      let h = Char.code s.[pos] in
      let n, neg =
        if h > 0x80 && h <= 0x87 then h - 0x80, false
        else if h >= 0x79 && h < 0x80 then 0x80 - h, true
        else invalid_arg "Ordpath.unpack: bad header byte"
      in
      if pos + n >= len + 1 then invalid_arg "Ordpath.unpack: truncated";
      let u = ref 0 in
      for i = pos + 1 to pos + n do
        u := (!u lsl 8) lor Char.code s.[i]
      done;
      let v = if neg then !u - (1 lsl (8 * n)) else !u in
      go (pos + n + 1) (v :: acc)
    end
  in
  of_components (go 0 [])

let compare_packed (a : string) (b : string) = String.compare a b

let is_packed_prefix p t =
  let lp = String.length p and lt = String.length t in
  lp <= lt && String.equal p (String.sub t 0 lp)

let is_packed_strict_prefix p t =
  String.length p < String.length t && is_packed_prefix p t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
