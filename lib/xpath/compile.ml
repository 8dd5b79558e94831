open Ast

(* NFA over top-down tree traversal.  A state stands for "this many steps
   of some path consumed, ending at the current node".  Three transition
   kinds:

   - [consume]: fires while descending one level, against the child node
     being entered.  [K_tree] requires the child to be an in-tree node
     (not an attribute, nor an attribute's text value) and tests with
     principal kind Element — the child and descendant axes.  [K_attr]
     requires an attribute child and tests with principal kind Attribute
     — the attribute axis.

   - [eps]: unconditional, consumes nothing.  Used to enter the loop
     state a descendant step compiles to.

   - [self_eps]: conditional on the *current* node (already consumed),
     consumes nothing.  [need_tree] distinguishes descendant-or-self's
     self branch (axis enumeration is tree-filtered) from the self axis
     (which is not).

   A descendant step [q -- descendant::t --> q'] becomes a fresh loop
   state [l] with [q --eps--> l], [l --consume(K_tree, node())--> l] and
   [l --consume(K_tree, t)--> q']: the loop keeps the obligation alive
   down the tree, the exit consumes the matching node, and strictness is
   inherent (an exit always descends at least one level). *)

type kindreq = K_tree | K_attr

type 'a state = {
  mutable eps : int list;
  mutable self_eps : (bool * node_test * int) list;
      (* need_tree, test, target *)
  mutable consume : (kindreq * node_test * int) list;
  mutable accepts : 'a list;
}

(* The name tests of one union branch, kept for anchoring a run on the
   label index ({!anchor}): [last] is the final step's name when it has
   one, [earlier] the names of the steps before it, and [parent] the
   name of the step before the last when the last one is a child or
   attribute step — the name its answers' parents carry. *)
type branch = {
  last : string option;
  parent : string option;
  earlier : string list;
}

type 'a t = {
  states : 'a state array;
  branches : branch list;
  names : (string, int) Hashtbl.t;
      (* the labels the name tests ask for, numbered from 1; every other
         label fails every name test alike.  Never mutated once built, so
         traversals on several domains may read it. *)
}

let state_count t = Array.length t.states

let branch_of steps =
  let name (s : step) = match s.test with Name l -> Some l | _ -> None in
  match List.rev steps with
  | [] -> { last = None; parent = None; earlier = [] }
  | last :: rest ->
    let parent =
      match (last.axis, rest) with
      | (Child | Attribute), before :: _ -> name before
      | _ -> None
    in
    { last = name last; parent;
      earlier = List.rev (List.filter_map name rest) }

let compile rules =
  let rev_states = ref [] in
  let count = ref 0 in
  let fresh () =
    let s = { eps = []; self_eps = []; consume = []; accepts = [] } in
    rev_states := s :: !rev_states;
    let i = !count in
    incr count;
    (i, s)
  in
  let _, start = fresh () in
  let branches = ref [] in
  let add_path payload steps =
    branches := branch_of steps :: !branches;
    let rec go (q : 'a state) = function
      | [] -> q.accepts <- payload :: q.accepts
      | { axis; test; preds } :: rest ->
        if preds <> [] then
          invalid_arg "Xpath.Compile.compile: path carries a predicate";
        let i', s' = fresh () in
        (match axis with
         | Child -> q.consume <- (K_tree, test, i') :: q.consume
         | Attribute -> q.consume <- (K_attr, test, i') :: q.consume
         | Self -> q.self_eps <- (false, test, i') :: q.self_eps
         | Descendant | Descendant_or_self ->
           if axis = Descendant_or_self then
             q.self_eps <- (true, test, i') :: q.self_eps;
           let li, l = fresh () in
           q.eps <- li :: q.eps;
           l.consume <- [ (K_tree, Node_test, li); (K_tree, test, i') ]
         | (Ancestor | Ancestor_or_self | Following | Following_sibling
           | Parent | Preceding | Preceding_sibling) as axis ->
           invalid_arg
             (Printf.sprintf "Xpath.Compile.compile: %s is not a downward axis"
                (Ast.axis_to_string axis)));
        go s' rest
    in
    go start steps
  in
  let rec add_expr payload = function
    | Union (a, b) ->
      add_expr payload a;
      add_expr payload b
    | Path { steps; _ } -> add_path payload steps
    | e ->
      invalid_arg
        (Printf.sprintf "Xpath.Compile.compile: not a downward path: %s"
           (Ast.to_string e))
  in
  List.iter (fun (payload, expr) -> add_expr payload expr) rules;
  let states = Array.of_list (List.rev !rev_states) in
  let names = Hashtbl.create 8 in
  let name = function
    | Name l when not (Hashtbl.mem names l) ->
      Hashtbl.add names l (Hashtbl.length names + 1)
    | _ -> ()
  in
  Array.iter
    (fun s ->
      List.iter (fun (_, test, _) -> name test) s.consume;
      List.iter (fun (_, test, _) -> name test) s.self_eps)
    states;
  { states; branches = List.rev !branches; names }

(* ---- Running ---- *)

(* Node classification during traversal, derived from the node's kind and
   its parent's class.  [C_skip] is an attribute's text value: unreachable
   by any downward axis, so states never survive there. *)
type cls = C_tree | C_attr | C_skip

let cls_code = function C_tree -> 0 | C_attr -> 1 | C_skip -> 2

let kind_code : Xmldoc.Node.kind -> int = function
  | Xmldoc.Node.Document -> 0
  | Xmldoc.Node.Element -> 1
  | Xmldoc.Node.Attribute -> 2
  | Xmldoc.Node.Text -> 3
  | Xmldoc.Node.Comment -> 4

let child_cls parent_cls (n : Xmldoc.Node.t) =
  if n.kind = Xmldoc.Node.Attribute then C_attr
  else match parent_cls with C_attr -> C_skip | C_tree | C_skip -> C_tree

let test_ok principal (test : node_test) (n : Xmldoc.Node.t) =
  match test with
  | Node_test -> true
  | Text_test -> n.kind = Xmldoc.Node.Text
  | Comment_test -> n.kind = Xmldoc.Node.Comment
  | Star -> n.kind = principal
  | Name name -> n.kind = principal && String.equal n.label name

(* ε-closure of [set] evaluated at node [n] of class [cls]; returns the
   sorted state list.  Self transitions have principal kind Element (the
   self and descendant-or-self axes). *)
let closure t cls (n : Xmldoc.Node.t) set =
  let mark = Array.make (Array.length t.states) false in
  let rec add i =
    if not mark.(i) then begin
      mark.(i) <- true;
      let s = t.states.(i) in
      List.iter add s.eps;
      List.iter
        (fun (need_tree, test, j) ->
          if (not need_tree || cls = C_tree)
             && test_ok Xmldoc.Node.Element test n
          then add j)
        s.self_eps
    end
  in
  List.iter add set;
  let acc = ref [] in
  for i = Array.length mark - 1 downto 0 do
    if mark.(i) then acc := i :: !acc
  done;
  !acc

(* One descent: the state set at a child node from its parent's set. *)
let step t cls (n : Xmldoc.Node.t) parent_set =
  let raw =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun (kreq, test, j) ->
            let fires =
              match kreq with
              | K_tree -> cls = C_tree && test_ok Xmldoc.Node.Element test n
              | K_attr -> cls = C_attr && test_ok Xmldoc.Node.Attribute test n
            in
            if fires then Some j else None)
          t.states.(i).consume)
      parent_set
  in
  closure t cls n raw

(* Transition keys are packed ints; mixing the label bits with the rest
   spreads them over the buckets. *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor (k lsr 20)) land max_int
end)

(* Per-traversal determinisation: state sets are interned to small ids and
   one transition is computed per (parent set, node class, kind, label)
   key, so repeated shapes cost one integer-keyed hash lookup.  The label
   part is the label's number among the automaton's names, 0 for any
   other label, so the key packs into a single int and a label no test
   asks for never costs a transition of its own.  Private to the
   traversal — the compiled automaton itself is never mutated. *)
type 'a run = {
  t : 'a t;
  ids : (int list, int) Hashtbl.t;  (* state set -> set id *)
  mutable set_arr : int list array;  (* set id -> state set *)
  mutable payload_arr : 'a list array;  (* set id -> accepted payloads *)
  mutable n_sets : int;
  memo : int Keys.t;  (* packed transition key -> set id *)
}

let new_run t =
  { t; ids = Hashtbl.create 64;
    set_arr = Array.make 16 []; payload_arr = Array.make 16 [];
    n_sets = 0; memo = Keys.create 256 }

let intern run set =
  match Hashtbl.find_opt run.ids set with
  | Some id -> id
  | None ->
    let id = run.n_sets in
    Hashtbl.add run.ids set id;
    if id = Array.length run.set_arr then begin
      run.set_arr <- Array.append run.set_arr (Array.make id []);
      run.payload_arr <- Array.append run.payload_arr (Array.make id [])
    end;
    run.set_arr.(id) <- set;
    run.payload_arr.(id) <-
      List.concat_map (fun i -> run.t.states.(i).accepts) set;
    run.n_sets <- id + 1;
    id

(* Packed key: name numbers stay well under 2^20 (they count the
   automaton's name tests), and set ids are bounded by the number of
   distinct reachable state sets (tiny), so the pack cannot collide
   within a 63-bit int. *)
let transition run ~parent_id cls (n : Xmldoc.Node.t) =
  (* Name tests only ever inspect Element and Attribute labels, so other
     kinds share one label slot and skip the string hash. *)
  let lid =
    match n.kind with
    | Xmldoc.Node.Element | Xmldoc.Node.Attribute -> (
      match Hashtbl.find_opt run.t.names n.label with Some i -> i | None -> 0)
    | _ -> 0
  in
  let key =
    (((parent_id * 3 + cls_code cls) * 5 + kind_code n.kind) lsl 20) lor lid
  in
  match Keys.find run.memo key with
  | id -> id
  | exception Not_found ->
    let id = intern run (step run.t cls n run.set_arr.(parent_id)) in
    Keys.add run.memo key id;
    id

(* State at the document node: closure of the start state. *)
let enter_document run (n : Xmldoc.Node.t) =
  intern run (closure run.t C_tree n [ 0 ])

(* The traversal keeps the current ancestor chain's (id, set id, class)
   entries on a stack instead of a per-node side table: document order
   visits a node's parent before the node and pops are amortised O(1), so
   threading state costs one [is_ancestor] check per node instead of
   hashing ordpaths. *)
type frame = { f_id : Ordpath.t; f_set : int; f_cls : cls }

(* Shared per-node logic: compute the node's (set id, class) from the top
   of the stack, push it, fold [f] over accepted payloads. *)
let visit run stack acc (n : Xmldoc.Node.t) ~f =
  let rec unwind () =
    match !stack with
    | top :: rest
      when not (Ordpath.is_ancestor ~ancestor:top.f_id n.id) ->
      stack := rest;
      unwind ()
    | _ -> ()
  in
  let finish set_id cls =
    stack := { f_id = n.id; f_set = set_id; f_cls = cls } :: !stack;
    match run.payload_arr.(set_id) with
    | [] -> acc
    | payloads -> f acc n payloads
  in
  if Ordpath.equal n.id Ordpath.document then
    finish (enter_document run n) C_tree
  else begin
    unwind ();
    match !stack with
    | [] -> acc (* orphan: no state can have survived *)
    | top :: _ ->
      (* [top] is the nearest visited ancestor — the parent in any
         well-formed document. *)
      let cls = child_cls top.f_cls n in
      finish (transition run ~parent_id:top.f_set cls n) cls
  end

let fold t doc ~init ~f =
  let run = new_run t in
  let stack = ref [] in
  Xmldoc.Document.fold (fun n acc -> visit run stack acc n ~f) doc init

(* Traversal statistics, filled on demand by the flat folds.  A plain
   mutable record rather than an [Obs] histogram: this library sits below
   the observability layer, so the caller owns aggregation. *)
type stats = {
  mutable visited : int;
  mutable pruned : int;
  mutable states : int;
  mutable anchors : string list;
}

let stats () = { visited = 0; pruned = 0; states = 0; anchors = [] }

(* ---- Flat-snapshot traversals ----

   The same automaton run over an {!Xmldoc.Flat} columnar snapshot.
   Document order is index order, so the ancestor stack needs no ordpath
   prefix checks at all: a frame is live while the current index is
   inside its [subtree_end] span, one integer compare per pop.  A pruned
   subtree is skipped by jumping the index straight to [subtree_end] —
   O(1) instead of one ancestor check per skipped node. *)

(* Mutable integer-indexed frame stack shared by the flat folds. *)
type flat_stack = {
  mutable ixs : int array;  (* flat index of the frame's node *)
  mutable ends : int array;  (* subtree_end of the frame's node *)
  mutable sets : int array;  (* interned state-set id *)
  mutable clss : cls array;
  mutable depth : int;
}

let flat_stack () =
  { ixs = Array.make 64 0; ends = Array.make 64 0; sets = Array.make 64 0;
    clss = Array.make 64 C_tree; depth = 0 }

let flat_push st ix e set cls =
  if st.depth = Array.length st.ends then begin
    let grow a fill =
      let a' = Array.make (2 * Array.length a) fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    st.ixs <- grow st.ixs 0;
    st.ends <- grow st.ends 0;
    st.sets <- grow st.sets 0;
    st.clss <- grow st.clss C_tree
  end;
  st.ixs.(st.depth) <- ix;
  st.ends.(st.depth) <- e;
  st.sets.(st.depth) <- set;
  st.clss.(st.depth) <- cls;
  st.depth <- st.depth + 1

let flat_pop_to st i =
  while st.depth > 0 && st.ends.(st.depth - 1) <= i do
    st.depth <- st.depth - 1
  done

(* Consume node [ix]; push its frame; fold accepted payloads. *)
let flat_visit run stk fl ix (n : Xmldoc.Node.t) acc ~f =
  let set_id, cls =
    if ix = 0 then (enter_document run n, C_tree)
    else begin
      let cls = child_cls stk.clss.(stk.depth - 1) n in
      (transition run ~parent_id:stk.sets.(stk.depth - 1) cls n, cls)
    end
  in
  flat_push stk ix (Xmldoc.Flat.subtree_end fl ix) set_id cls;
  match run.payload_arr.(set_id) with
  | [] -> acc
  | payloads -> f acc n payloads

let fold_flat t fl ~init ~f =
  let run = new_run t in
  let stk = flat_stack () in
  let n = Xmldoc.Flat.size fl in
  let acc = ref init in
  for i = 0 to n - 1 do
    flat_pop_to stk i;
    acc := flat_visit run stk fl i (Xmldoc.Flat.node fl i) !acc ~f
  done;
  !acc

(* Every row inside [ranges] (disjoint, ascending [lo, hi) row spans) in
   one shared run.  The determinised-set memo, the interning tables and
   the ancestor stack persist across ranges: frames whose spans closed
   before [lo] pop off, and what survives is exactly the already-threaded
   ancestor prefix of [lo], so only the chain below the deepest live frame
   is re-threaded — ranges that share ancestors share their frames.  A
   range whose chain runs through a node the view prunes lies inside a
   pruned subtree and yields nothing. *)
let ranges_run ?stats ?view run fl ~ranges ~init ~f =
  let stk = flat_stack () in
  let visited = ref 0 and pruned = ref 0 in
  let shown ix =
    let n = Xmldoc.Flat.node fl ix in
    match view with None -> Some n | Some view -> view ix n
  in
  (* Consumes the ancestors of a range from the one below [known] (the
     deepest live frame) down to [p], outermost first; [false] when one
     of them is pruned. *)
  let rec thread known p =
    p < 0 || p = known
    || thread known (Xmldoc.Flat.parent_ix fl p)
       &&
       match shown p with
       | None -> false
       | Some n ->
         incr visited;
         flat_visit run stk fl p n () ~f:(fun () _ _ -> ());
         true
  in
  let rec go acc = function
    | [] -> acc
    | (lo, hi) :: rest ->
      flat_pop_to stk lo;
      let known = if stk.depth = 0 then -1 else stk.ixs.(stk.depth - 1) in
      if not (thread known (Xmldoc.Flat.parent_ix fl lo)) then go acc rest
      else begin
        let acc = ref acc in
        let i = ref lo in
        while !i < hi do
          let ix = !i in
          flat_pop_to stk ix;
          match shown ix with
          | None ->
            let stop = Xmldoc.Flat.subtree_end fl ix in
            pruned := !pruned + (min stop hi - ix);
            i := stop
          | Some n ->
            incr visited;
            acc := flat_visit run stk fl ix n !acc ~f;
            incr i
        done;
        go !acc rest
      end
  in
  let acc = go init ranges in
  (match stats with
   | Some s ->
     s.visited <- s.visited + !visited;
     s.pruned <- s.pruned + !pruned;
     s.states <- s.states + run.n_sets
   | None -> ());
  acc

let fold_ranges_flat ?stats ?view t fl ~ranges ~init ~f =
  ranges_run ?stats ?view (new_run t) fl ~ranges ~init ~f

(* One determinisation run kept for the automaton's lifetime: the state
   sets a traversal interns and the transitions it computes stay valid
   for any later traversal of the same automaton, so a caller that runs
   it over a few rows again and again (a commit's delta) stops paying
   for the same sets each time.  The run is mutable, so traversals take
   turns under the mutex. *)
type 'a shared = { run : 'a run; lock : Mutex.t }

let share t = { run = new_run t; lock = Mutex.create () }

let fold_ranges_shared s fl ~ranges ~init ~f =
  Mutex.protect s.lock (fun () -> ranges_run s.run fl ~ranges ~init ~f)

let fold_view_flat ?stats t fl ~view ~init ~f =
  fold_ranges_flat ?stats ~view t fl
    ~ranges:[ (0, Xmldoc.Flat.size fl) ]
    ~init ~f

(* ---- Anchored runs ----

   The steps of a downward path thread parent to descendant, so every
   node a branch's name test matched lies on the ancestor-or-self chain
   of each of the branch's answers, and carries that name.  Two anchors
   follow, both read off the snapshot's posting lists:

   - the last step's name: the answers are among that name's rows — and
     when the step before names their parent, among the rows whose
     parent carries that name (the structural join of the two lists);
   - an earlier step's name: the answers lie inside those rows'
     subtrees.

   Each branch takes the cheaper of its last name and its rarest
   earlier name.  A run over the chosen rows then visits only them and
   their ancestor chains.  The estimate charges every row the run visits
   plus [thread_cost] per range for re-threading the automaton down its
   ancestor chain (thread_cost = 4 puts one range at about five rows of
   a scan, measured on a 10^5-node Zipf document); an anchored run is
   worth it only while that estimate stays within one pass over the
   whole snapshot. *)

let thread_cost = 4

(* How a branch's candidates come off its label's posting list. *)
type pick =
  | Rows of string option
      (* the rows, only those whose parent carries the name if given *)
  | Subtrees  (* the rows' subtrees *)

type anchor = { picks : (string * pick) list; cost : int }

let anchor t fl =
  let module F = Xmldoc.Flat in
  let count l = Array.length (F.by_label_ix fl l) in
  (* Rows visited by a run over the outermost subtrees of [l]'s rows. *)
  let subtree_cost l =
    let limit = ref 0 and cost = ref 0 in
    Array.iter
      (fun ix ->
        if ix >= !limit then begin
          limit := F.subtree_end fl ix;
          cost := !cost + (!limit - ix) + thread_cost
        end)
      (F.by_label_ix fl l);
    !cost
  in
  let choose b =
    (* A row costs its visit and its chain; behind a parent name it costs
       one look at its parent, and a parent is taken to keep one
       candidate on average. *)
    let rows_cost l =
      match b.parent with
      | None -> count l * (1 + thread_cost)
      | Some p -> count l + (min (count l) (count p) * thread_cost)
    in
    let rows =
      Option.map (fun l -> ((l, Rows b.parent), rows_cost l)) b.last
    in
    let rarest =
      List.fold_left
        (fun best l ->
          let n = count l in
          match best with Some (_, bn) when bn <= n -> best | _ -> Some (l, n))
        None b.earlier
    in
    match (rarest, rows) with
    | Some (e, ne), Some (_, rc) when ne * (1 + thread_cost) < rc ->
      (* Worth counting the earlier name's subtrees only when its rows
         alone could undercut the last name's. *)
      let c = subtree_cost e in
      if rc <= c then rows else Some ((e, Subtrees), c)
    | Some (e, _), None -> Some ((e, Subtrees), subtree_cost e)
    | _, _ -> rows
  in
  let rec all acc = function
    | [] -> Some (List.rev acc)
    | b :: rest -> (
      match choose b with None -> None | Some c -> all (c :: acc) rest)
  in
  match all [] t.branches with
  | None | Some [] -> None
  | Some chosen ->
    Some
      { picks = List.map fst chosen;
        cost = List.fold_left (fun acc (_, c) -> acc + c) 0 chosen }

let anchor_pays fl a = a.cost <= Xmldoc.Flat.size fl

let anchor_names a =
  List.fold_left
    (fun acc (l, _) -> if List.mem l acc then acc else acc @ [ l ])
    [] a.picks

let anchor_ranges ?(shown = fun _ -> true) fl a =
  let module F = Xmldoc.Flat in
  (* A row whose parent shows the name [p]. *)
  let under p ix =
    let par = F.parent_ix fl ix in
    par >= 0 && shown par && String.equal (F.label_ix fl par) p
  in
  let spans (l, pick) =
    let keep ix =
      shown ix
      &&
      match pick with
      | Rows (Some p) -> under p ix
      | Rows None | Subtrees -> true
    in
    let hi ix =
      match pick with Subtrees -> F.subtree_end fl ix | Rows _ -> ix + 1
    in
    Array.fold_right
      (fun ix acc -> if keep ix then (ix, hi ix) :: acc else acc)
      (F.by_label_ix fl l) []
  in
  (* A span inside an earlier one (a nested candidate, or a row another
     branch already covers) adds nothing. *)
  let outermost spans =
    let limit = ref 0 in
    List.filter
      (fun (lo, hi) ->
        lo >= !limit
        && begin
          limit := hi;
          true
        end)
      spans
  in
  match a.picks with
  | [ ((_, Rows _) as pick) ] ->
    (* One label's rows: ascending, never nested. *)
    spans pick
  | [ pick ] -> outermost (spans pick)
  | picks ->
    outermost
      (List.sort
         (fun (lo, hi) (lo', hi') ->
           if lo <> lo' then compare lo lo' else compare hi' hi)
         (List.concat_map spans picks))

let fold_subtree t doc ~root ~init ~f =
  if not (Xmldoc.Document.mem doc root) then init
  else begin
    let run = new_run t in
    let stack = ref [] in
    (* Re-thread the automaton down the strict ancestor chain, outermost
       first, without folding [f] over it. *)
    let ancestors =
      List.rev (Xmldoc.Document.ancestors doc root)
    in
    List.iter
      (fun n -> ignore (visit run stack init n ~f:(fun acc _ _ -> acc)))
      ancestors;
    Seq.fold_left
      (fun acc n -> visit run stack acc n ~f)
      init
      (Xmldoc.Document.descendant_or_self_seq doc root)
  end
